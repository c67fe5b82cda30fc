//! The in-memory span recorder of the traced run (`--trace 1`).
//!
//! Spans are recorded by the benchmark's own code around its calls into
//! each layer — nothing inside the measured crates is instrumented —
//! kept in memory, and written as JSON lines when the run ends. A
//! span's self time is its duration minus what its children cover.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Recorder capacity. A traced proxy run completes a few hundred
/// thousand requests at four spans each; past the cap spans are counted
/// as dropped, so the file holds the first ~8 000 requests of each
/// traced phase and stays under 10 MB.
pub const SPAN_CAP: usize = 1 << 16;

/// One recorded interval. `parent` 0 means a root span; spans of one
/// request (or one control round) share `req`.
pub struct Span {
    id: u32,
    parent: u32,
    req: u64,
    name: &'static str,
    label: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// The recorder. Timestamps are nanoseconds since [`Tracer::new`].
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    limit: usize,
    dropped: u64,
}

impl Tracer {
    pub fn new() -> Self {
        // Touch every page of the recorder now: first-touch page faults
        // belong to set-up, not to the requests whose spans land there.
        let mut spans = Vec::with_capacity(SPAN_CAP);
        spans.resize_with(SPAN_CAP, || Span {
            id: 0,
            parent: 0,
            req: 0,
            name: "",
            label: "",
            start_ns: 0,
            end_ns: 0,
        });
        spans.clear();
        Tracer {
            origin: Instant::now(),
            spans,
            limit: SPAN_CAP,
            dropped: 0,
        }
    }

    /// Spans past `limit` (at most [`SPAN_CAP`]) are dropped from now on.
    pub fn limit(&mut self, limit: usize) {
        self.limit = limit.min(SPAN_CAP);
    }

    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Nanoseconds from this recorder's origin to `t`.
    pub fn ns_at(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records one span and returns its id for use as a `parent`
    /// (0 when the recorder is full and the span was dropped).
    pub fn push(
        &mut self,
        parent: u32,
        req: u64,
        name: &'static str,
        label: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        if self.spans.len() >= self.limit {
            self.dropped += 1;
            return 0;
        }
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            req,
            name,
            label,
            start_ns,
            end_ns,
        });
        id
    }

    /// Times `f` as one root span named `name`.
    pub fn time<T>(&mut self, name: &'static str, label: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.push(0, 0, name, label, start, end);
        out
    }

    pub fn recorded(&self) -> usize {
        self.spans.len()
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Self time per span: duration minus the children's durations
    /// (children of one span never overlap here).
    fn self_times(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len() + 1];
        for s in &self.spans {
            covered[s.parent as usize] += s.end_ns.saturating_sub(s.start_ns);
        }
        self.spans
            .iter()
            .map(|s| {
                s.end_ns
                    .saturating_sub(s.start_ns)
                    .saturating_sub(covered[s.id as usize])
            })
            .collect()
    }

    /// Writes every span as one JSON object per line, and waits until
    /// the file is on disk: left to the kernel, the write-back would run
    /// during whatever is measured next.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let file = std::fs::File::create(path)?;
        let mut w = BufWriter::new(&file);
        for (s, self_ns) in self.spans.iter().zip(self.self_times()) {
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"label\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.id, s.parent, s.req, s.name, s.label, s.start_ns, s.end_ns, self_ns
            )?;
        }
        w.flush()?;
        file.sync_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::new();
        let req = t.push(0, 7, "request", "", 100, 1_000);
        t.push(req, 7, "write", "", 100, 300);
        t.push(req, 7, "await", "", 300, 900);
        t.push(req, 7, "verify", "", 900, 950);
        assert_eq!(t.self_times(), vec![50, 200, 600, 50]);
    }
}
