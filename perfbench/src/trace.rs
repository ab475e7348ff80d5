//! Spans and counters recorded by the benchmark around its calls into
//! the program's layers. Nothing here runs inside the program: a span
//! times one public call made from the benchmark's own code.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u32,
    /// The span that caused this one (0 = none).
    pub parent: u32,
    /// The request this span belongs to.
    pub req: u32,
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end - self.start
    }
}

/// An open span; pass it back to [`Tracer::end`].
pub struct Open {
    pub id: u32,
    name: &'static str,
    parent: u32,
    req: u32,
    start: u64,
}

/// Per-thread span recorder. A disabled tracer reads no clock and
/// records nothing, so the same replay with tracing off measures the
/// tracing overhead.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    /// Span ids are `id_base + sequence`, unique across threads.
    id_base: u32,
    next: u32,
    pub spans: Vec<Span>,
    pub counts: BTreeMap<&'static str, u64>,
    /// Per-event sizes (e.g. response bytes), for distributions.
    pub values: BTreeMap<&'static str, Vec<u64>>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant, thread: u32) -> Self {
        Tracer {
            on,
            epoch,
            id_base: thread << 26,
            next: 0,
            spans: Vec::new(),
            counts: BTreeMap::new(),
            values: BTreeMap::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, parent: u32, req: u32) -> Open {
        if !self.on {
            return Open {
                id: 0,
                name,
                parent,
                req,
                start: 0,
            };
        }
        self.next += 1;
        Open {
            id: self.id_base + self.next,
            name,
            parent,
            req,
            start: self.now(),
        }
    }

    pub fn end(&mut self, open: Open) {
        if self.on {
            let end = self.now();
            self.spans.push(Span {
                id: open.id,
                parent: open.parent,
                req: open.req,
                name: open.name,
                start: open.start,
                end,
            });
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        req: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let open = self.begin(name, parent, req);
        let out = f();
        self.end(open);
        out
    }

    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.on {
            *self.counts.entry(name).or_insert(0) += n;
        }
    }

    pub fn value(&mut self, name: &'static str, v: u64) {
        if self.on {
            self.values.entry(name).or_default().push(v);
        }
    }

    /// Moves another thread's spans, counts and values into this one.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
        for (k, v) in other.counts {
            *self.counts.entry(k).or_insert(0) += v;
        }
        for (k, v) in other.values {
            self.values.entry(k).or_default().extend(v);
        }
    }

    /// Durations (ns, ascending) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        let mut d: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .collect();
        d.sort_unstable();
        d
    }

    pub fn counted(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Writes every span as tab-separated `id parent req name start_ns
    /// end_ns` lines.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\treq\tname\tstart_ns\tend_ns")?;
        for s in &self.spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.req, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}
