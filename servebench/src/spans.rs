//! In-memory spans of the traced run: name, start, end, parent and
//! request id, written out when the run ends.

use std::collections::HashMap;
use std::io::{self, Write};
use std::time::Instant;

/// "No parent".
pub const ROOT: u32 = u32::MAX;

/// One timed interval. Times are nanoseconds since the run's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span in the same [`Spans`], or [`ROOT`].
    pub parent: u32,
    /// The request this span belongs to (client × stream position).
    pub request: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end - self.start
    }
}

/// A span log with a shared epoch.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new(epoch: Instant) -> Spans {
        Spans {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Spans::close`]. Returns its index.
    pub fn open(&mut self, name: &'static str, parent: u32, request: u64) -> u32 {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            request,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, id: u32) -> u64 {
        let end = self.now();
        let span = &mut self.spans[id as usize];
        span.end = end;
        span.nanos()
    }

    /// Times `f` as a span named `name` under `parent`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let id = self.open(name, parent, request);
        let out = f();
        (out, self.close(id))
    }

    /// Appends another log (same epoch), re-basing its parent links.
    pub fn extend(&mut self, other: Spans) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != ROOT {
                s.parent += base;
            }
            s
        }));
    }

    /// Self time of every span: its duration minus the part of it that its
    /// children cover (children of one parent never overlap here, since
    /// each log is written by one thread).
    pub fn self_times(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child[s.parent as usize] += s.nanos();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.nanos().saturating_sub(c))
            .collect()
    }

    /// Total and self nanoseconds by span name, with span counts.
    pub fn by_name(&self) -> Vec<(&'static str, usize, u64, u64)> {
        let mut acc: HashMap<&'static str, (usize, u64, u64)> = HashMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            let e = acc.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.nanos();
            e.2 += own;
        }
        let mut rows: Vec<_> = acc.into_iter().map(|(n, (c, t, o))| (n, c, t, o)).collect();
        rows.sort_by_key(|row| std::cmp::Reverse(row.2));
        rows
    }

    /// Writes one tab-separated line per span (at most `limit` spans, the
    /// earliest first), after a per-name summary in `#` comment lines.
    pub fn write(&self, out: &mut impl Write, limit: usize) -> io::Result<()> {
        writeln!(out, "# name\tcount\ttotal_ns\tself_ns")?;
        for (name, count, total, own) in self.by_name() {
            writeln!(out, "# {name}\t{count}\t{total}\t{own}")?;
        }
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\trequest")?;
        for (i, s) in self.spans.iter().enumerate().take(limit) {
            let parent = if s.parent == ROOT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start, s.end, s.request
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut log = Spans::new(Instant::now());
        log.spans = vec![
            span("request", 0, 100, ROOT),
            span("parse", 10, 30, 0),
            span("eval", 40, 90, 0),
            span("kernel", 50, 60, 2),
        ];
        assert_eq!(log.self_times(), vec![30, 20, 40, 10]);
        let rows = log.by_name();
        assert_eq!(rows[0], ("request", 1, 100, 30));
    }

    #[test]
    fn extend_rebases_parents() {
        let mut a = Spans::new(Instant::now());
        a.spans = vec![span("x", 0, 1, ROOT)];
        let mut b = Spans::new(Instant::now());
        b.spans = vec![span("y", 0, 4, ROOT), span("z", 1, 2, 0)];
        a.extend(b);
        assert_eq!(a.spans[2].parent, 1);
        let mut out = Vec::new();
        a.write(&mut out, 10).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("2\tz\t1\t2\t1\t0"), "{text}");
    }
}
