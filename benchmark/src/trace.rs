//! In-memory span recorder for the traced run.
//!
//! A span is one public layer call made by the benchmark: layer, name,
//! start, end, parent span, and the program or request id it served.
//! Spans stay in memory and are written out when the run ends. A
//! layer's self time is its spans' durations minus the part covered by
//! their child spans. Counters sit beside the spans, recorded at the
//! same layer boundaries.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    layer: &'static str,
    name: &'static str,
    id: u32,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    counters: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span under the current one; close it with [`Tracer::exit`].
    pub fn enter(&mut self, layer: &'static str, name: &'static str, id: u32) -> usize {
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            layer,
            name,
            id,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        let idx = self.spans.len() - 1;
        self.stack.push(idx);
        idx
    }

    pub fn exit(&mut self, idx: usize) {
        let end = self.ns(Instant::now());
        self.spans[idx].end_ns = end;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(idx), "spans must close innermost first");
    }

    /// A leaf span around `f`.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        id: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let s = self.enter(layer, name, id);
        let out = f();
        self.exit(s);
        out
    }

    /// A span under the current one whose bounds were timestamped
    /// elsewhere (inside a gate callback).
    pub fn record(
        &mut self,
        layer: &'static str,
        name: &'static str,
        id: u32,
        start: Instant,
        end: Instant,
    ) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            layer,
            name,
            id,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns,
        });
    }

    pub fn count(&mut self, key: &'static str, v: f64) {
        *self.counters.entry(key).or_default() += v;
    }

    pub fn counter(&self, key: &str) -> f64 {
        self.counters.get(key).copied().unwrap_or(0.0)
    }

    /// Self time in seconds per `layer.name`.
    pub fn self_times(&self) -> BTreeMap<String, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child_ns) {
            let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(*c);
            *out.entry(format!("{}.{}", s.layer, s.name)).or_default() += own as f64 / 1e9;
        }
        out
    }

    /// Write every span as one tab-separated line under
    /// `.bench_build/bench-spans/` in the working directory.
    pub fn write(&self, tag: &str) -> Result<(), String> {
        let dir = std::path::Path::new(".bench_build").join("bench-spans");
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("{tag}.tsv"));
        let mut text = String::from("idx\tparent\tlayer\tname\tid\tstart_ns\tend_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{i}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                s.layer, s.name, s.id, s.start_ns, s.end_ns
            );
        }
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("spans written to {}", path.display());
        Ok(())
    }
}
