//! The traced run's span store: name, start, end, parent and a firing or
//! query id per span, kept in memory and written out when the run ends.
//!
//! Spans are recorded only by the benchmark, around its own calls into
//! each layer's public functions; end-to-end runs record none.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One closed span. Times are ns since the store's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Layer function or phase name.
    pub name: &'static str,
    /// Firing, query, batch or boundary id the span belongs to.
    pub key: u64,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch (0 while open).
    pub end_ns: u64,
}

impl Span {
    /// Duration, ns.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An append-only span store with an open-span stack for parents.
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

/// Per-name totals: `(spans, total ns, self ns)`.
pub type Totals = BTreeMap<&'static str, (u64, u64, u64)>;

impl Spans {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one; returns its index.
    pub fn enter(&mut self, name: &'static str, key: u64) -> u32 {
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            parent: self.open.last().copied(),
            name,
            key,
            start_ns: self.now(),
            end_ns: 0,
        });
        self.open.push(idx);
        idx
    }

    /// Closes span `idx` (the innermost open one) and returns its ns.
    pub fn exit(&mut self, idx: u32) -> u64 {
        let end = self.now();
        debug_assert_eq!(self.open.last(), Some(&idx), "spans close innermost first");
        self.open.pop();
        let s = &mut self.spans[idx as usize];
        s.end_ns = end;
        s.ns()
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name count, total and self time. A span's self time is its
    /// duration minus the part of it its direct children cover.
    pub fn totals(&self) -> Totals {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.ns();
            }
        }
        let mut out = Totals::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.ns();
            e.2 += s.ns().saturating_sub(child_ns[i]);
        }
        out
    }

    /// Writes one tab-separated line per span —
    /// `id parent name key start_ns end_ns` (parent `-` at the root) —
    /// after a header line.
    pub fn write_tsv(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "id\tparent\tname\tkey\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.name, s.key, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut s = Spans::default();
        let a = s.enter("outer", 1);
        let b = s.enter("inner", 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        s.exit(b);
        s.exit(a);
        let t = s.totals();
        let (n, total, own) = t["outer"];
        assert_eq!(n, 1);
        assert_eq!(own, total - t["inner"].1);
        assert_eq!(s.spans()[1].parent, Some(0));
    }
}
