//! The traced run's span log: spans recorded in memory around calls into
//! the crates' public functions, written out when the run ends, and
//! reduced to per-layer self time (a span's duration minus the part of
//! it that its children cover).

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Parent index of a root span.
pub const ROOT: u32 = u32::MAX;

/// One timed call: `[start_ns, end_ns)` since the log's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same log, or [`ROOT`].
    pub parent: u32,
    /// Read (request) id the span worked on; `u64::MAX` for none.
    pub read: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

/// Self time and call count of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    pub self_ns: u64,
    pub count: u64,
}

impl SpanLog {
    pub fn new(epoch: Instant) -> SpanLog {
        SpanLog {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span ending "now" until [`SpanLog::close`] moves its end.
    pub fn open(&mut self, name: &'static str, parent: u32, read: u64) -> u32 {
        let now = self.now_ns();
        self.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            read,
        })
    }

    pub fn close(&mut self, idx: u32) {
        let now = self.now_ns();
        self.spans[idx as usize].end_ns = now;
    }

    /// Records a finished span; returns its index.
    pub fn push(&mut self, span: Span) -> u32 {
        let idx = u32::try_from(self.spans.len()).expect("span log index fits u32");
        self.spans.push(span);
        idx
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name self time: each span's duration minus the union of its
    /// children's intervals (clipped to the span).
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut children: Vec<Vec<u32>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent != ROOT {
                children[s.parent as usize].push(i as u32);
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let mut kids: Vec<(u64, u64)> = children[i]
                .iter()
                .map(|&c| {
                    let c = &self.spans[c as usize];
                    (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                })
                .filter(|(a, b)| b > a)
                .collect();
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let e = out.entry(s.name).or_default();
            e.self_ns += s.dur_ns() - covered;
            e.count += 1;
        }
        out
    }

    /// Writes the log as tab-separated `name start_ns end_ns parent read`.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "name\tstart_ns\tend_ns\tparent\tread")?;
        for s in &self.spans {
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            let read = if s.read == u64::MAX {
                -1
            } else {
                s.read as i64
            };
            writeln!(
                w,
                "{}\t{}\t{}\t{parent}\t{read}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            read: 0,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals_once() {
        let mut log = SpanLog::new(Instant::now());
        let root = log.push(span("read", 0, 100, ROOT));
        log.push(span("smem", 10, 40, root));
        log.push(span("smem", 30, 50, root)); // overlaps the first child
        log.push(span("chain", 90, 120, root)); // clipped at the parent's end
        let t = log.layer_times();
        assert_eq!(t["read"].self_ns, 100 - 40 - 10);
        assert_eq!(t["smem"].self_ns, 50);
        assert_eq!(t["smem"].count, 2);
        assert_eq!(t["chain"].self_ns, 30);
    }
}
