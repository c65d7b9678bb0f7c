//! The Wukong-style base graph store (§4.1, Fig. 6).
//!
//! The store keys key/value pairs by `[vid | pid | dir]` and stores the
//! neighbouring vertex IDs as the value. *Index vertices* (vertex 0)
//! provide the reverse mapping from an edge label to every vertex carrying
//! such an edge, so queries can start from a predicate alone.
//!
//! The continuous persistent store extends the same structure with
//! incremental, snapshot-numbered appends: each value is a [`ValueCell`]
//! holding a base segment (visible to everyone) plus a bounded queue of
//! per-snapshot intervals (§4.3, "bounded snapshot scalarization").
//! Values are append-only, which gives every neighbour a *stable logical
//! offset* within its key — the property the stream index's fat pointers
//! rely on (§4.2).

use crate::snapshot::SnapshotId;
use crate::stream_index::Posting;
use wukong_rdf::{Dir, Key, KeyMap, Pid, Timestamp, Triple, Vid};

/// One key's value: the base segment plus bounded snapshot intervals.
#[derive(Debug, Default, Clone)]
pub struct ValueCell {
    /// Neighbours visible at every snapshot (initial load + consolidated).
    base: Vec<Vid>,
    /// Per-snapshot appended intervals, oldest first.
    intervals: Vec<(SnapshotId, Vec<Vid>)>,
}

impl ValueCell {
    /// Total logical length (all snapshots).
    pub fn total_len(&self) -> usize {
        self.base.len() + self.intervals.iter().map(|(_, v)| v.len()).sum::<usize>()
    }

    /// Logical length visible at snapshot `sn`.
    pub fn len_at(&self, sn: SnapshotId) -> usize {
        self.base.len()
            + self
                .intervals
                .iter()
                .take_while(|(s, _)| *s <= sn)
                .map(|(_, v)| v.len())
                .sum::<usize>()
    }

    /// Appends one neighbour under snapshot `sn`, returning its logical
    /// offset.
    ///
    /// Appends must arrive in non-decreasing snapshot order; the injector
    /// guarantees this because a key partition is owned by one thread and
    /// batches of one stream are inserted in order (§4.1).
    fn append(&mut self, v: Vid, sn: SnapshotId) -> u32 {
        let off = self.total_len() as u32;
        match self.intervals.last_mut() {
            Some((last_sn, seg)) if *last_sn == sn => seg.push(v),
            Some((last_sn, _)) => {
                debug_assert!(*last_sn < sn, "appends must be snapshot-ordered");
                self.intervals.push((sn, vec![v]));
            }
            None => self.intervals.push((sn, vec![v])),
        }
        off
    }

    /// Merges every interval with snapshot ≤ `upto` into the base segment.
    ///
    /// The caller (the coordinator) must guarantee that no in-flight query
    /// reads at a snapshot older than `upto`; afterwards those intervals'
    /// data is visible at every snapshot, exactly as if it had been initial
    /// data. Logical offsets are unchanged because order is preserved.
    fn consolidate(&mut self, upto: SnapshotId) {
        let n = self
            .intervals
            .iter()
            .take_while(|(s, _)| *s <= upto)
            .count();
        for (_, seg) in self.intervals.drain(..n) {
            self.base.extend(seg);
        }
    }

    /// Number of snapshot intervals currently retained.
    pub fn retained_snapshots(&self) -> usize {
        self.intervals.len()
    }

    /// Visits the neighbours visible at snapshot `sn`.
    pub fn for_each_at(&self, sn: SnapshotId, mut f: impl FnMut(Vid)) {
        for &v in &self.base {
            f(v);
        }
        for (s, seg) in &self.intervals {
            if *s > sn {
                break;
            }
            for &v in seg {
                f(v);
            }
        }
    }

    /// Copies the logical range `[start, start + len)` into `out`.
    ///
    /// Ranges come from stream-index fat pointers and always lie within the
    /// already-written part of the cell; out-of-range requests are clipped.
    pub fn read_range(&self, start: u32, len: u32, out: &mut Vec<Vid>) {
        self.for_each_slice_in_range(start, len, |s| out.extend_from_slice(s));
    }

    /// Visits, in order, the stored slices that make up the logical range
    /// `[start, start + len)` (clipped like [`ValueCell::read_range`]).
    fn for_each_slice_in_range(&self, start: u32, len: u32, mut f: impl FnMut(&[Vid])) {
        let mut skip = start as usize;
        let mut take = len as usize;
        let segs = std::iter::once(self.base.as_slice())
            .chain(self.intervals.iter().map(|(_, seg)| seg.as_slice()));
        for seg in segs {
            if take == 0 {
                break;
            }
            if skip >= seg.len() {
                skip -= seg.len();
                continue;
            }
            let avail = &seg[skip..];
            let n = avail.len().min(take);
            f(&avail[..n]);
            take -= n;
            skip = 0;
        }
    }

    /// Approximate heap bytes held by this cell.
    pub fn heap_bytes(&self) -> usize {
        let vid = std::mem::size_of::<Vid>();
        let mut bytes = self.base.capacity() * vid;
        for (_, seg) in &self.intervals {
            // Interval payload plus the (SnapshotId, Vec) bookkeeping.
            bytes += seg.capacity() * vid + std::mem::size_of::<(SnapshotId, Vec<Vid>)>();
        }
        bytes
    }
}

/// Where an append landed: key plus logical offset range.
///
/// Receipts feed the stream index: appends by one stream batch to one key
/// are contiguous in that key's logical sequence (nothing else writes the
/// key partition meanwhile), so a batch compresses to one `(start, len)`
/// fat pointer per key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendReceipt {
    /// The key appended to.
    pub key: Key,
    /// Logical offset of the appended neighbour.
    pub offset: u32,
}

/// The in-memory key/value graph store of one shard (or partition).
#[derive(Debug, Default)]
pub struct BaseStore {
    map: KeyMap<ValueCell>,
    triple_count: u64,
}

impl BaseStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of triples inserted (each triple counts once, although it
    /// updates up to four keys).
    pub fn triple_count(&self) -> u64 {
        self.triple_count
    }

    /// Number of distinct keys.
    pub fn key_count(&self) -> usize {
        self.map.len()
    }

    /// Inserts a triple into the initial (base, snapshot-0) dataset.
    pub fn insert_base(&mut self, t: Triple) {
        self.insert_at(t, SnapshotId::BASE, &mut Vec::new());
    }

    /// Appends one neighbour to `key` under snapshot `sn`.
    ///
    /// Returns the logical offset of the append and whether the key was
    /// empty beforehand (used for duplicate-free index maintenance: a
    /// vertex joins the `[0|p|d]` index exactly when its own `[v|p|d]` key
    /// goes from empty to non-empty).
    pub fn append_edge(&mut self, key: Key, v: Vid, sn: SnapshotId) -> (u32, bool) {
        self.append_edge_merging(key, v, sn, None)
    }

    /// Like [`BaseStore::append_edge`], additionally consolidating this
    /// cell's intervals up to `merge_upto` first.
    ///
    /// This is the paper's injection-time recycling of expired snapshots
    /// ("The Injector can continue to absorb the streaming data and
    /// overwrite the snapshot number 2 by 4", §4.3): consolidation work is
    /// amortised over appends, touching only written cells.
    pub fn append_edge_merging(
        &mut self,
        key: Key,
        v: Vid,
        sn: SnapshotId,
        merge_upto: Option<SnapshotId>,
    ) -> (u32, bool) {
        let cell = self.map.entry(key).or_default();
        if let Some(upto) = merge_upto {
            cell.consolidate(upto);
        }
        let was_empty = cell.total_len() == 0;
        (cell.append(v, sn), was_empty)
    }

    /// Bumps the triple counter (the shard layer counts a triple once even
    /// though its key updates may span partitions).
    pub fn note_triple(&mut self) {
        self.triple_count += 1;
    }

    /// Inserts a triple under snapshot `sn`, pushing append receipts.
    ///
    /// Updates the out-edge key, the in-edge key, and — only on a vertex's
    /// *first* edge with that predicate/direction — the two index-vertex
    /// keys, which keeps index lists duplicate-free without extra memory
    /// (Fig. 6's behaviour for the `⟨Logan, po, T-15⟩` injection).
    pub fn insert_at(&mut self, t: Triple, sn: SnapshotId, receipts: &mut Vec<AppendReceipt>) {
        self.triple_count += 1;

        // Subject side: `[s | p | out] += o`.
        let (off, first_out) = self.append_edge(t.out_key(), t.o, sn);
        receipts.push(AppendReceipt {
            key: t.out_key(),
            offset: off,
        });

        // Object side: `[o | p | in] += s`.
        let (off, first_in) = self.append_edge(t.in_key(), t.s, sn);
        receipts.push(AppendReceipt {
            key: t.in_key(),
            offset: off,
        });

        // Index vertex: `[0 | p | out] += s` on the subject's first p-out
        // edge; `[0 | p | in] += o` on the object's first p-in edge.
        if first_out {
            let k = Key::index(t.p, Dir::Out);
            let (off, _) = self.append_edge(k, t.s, sn);
            receipts.push(AppendReceipt {
                key: k,
                offset: off,
            });
        }
        if first_in {
            let k = Key::index(t.p, Dir::In);
            let (off, _) = self.append_edge(k, t.o, sn);
            receipts.push(AppendReceipt {
                key: k,
                offset: off,
            });
        }
    }

    /// Visits every key in the store (for statistics and checkpointing).
    pub fn for_each_key(&self, mut f: impl FnMut(Key, &ValueCell)) {
        for (k, c) in &self.map {
            f(*k, c);
        }
    }

    /// Visits the neighbours of `key` visible at snapshot `sn`.
    pub fn for_each_neighbor(&self, key: Key, sn: SnapshotId, f: impl FnMut(Vid)) {
        if let Some(cell) = self.map.get(&key) {
            cell.for_each_at(sn, f);
        }
    }

    /// Collects the neighbours of `key` visible at snapshot `sn`.
    pub fn neighbors_at(&self, key: Key, sn: SnapshotId) -> Vec<Vid> {
        let mut out = Vec::new();
        self.for_each_neighbor(key, sn, |v| out.push(v));
        out
    }

    /// Length of `key`'s neighbour list at snapshot `sn` (0 if absent).
    pub fn len_at(&self, key: Key, sn: SnapshotId) -> usize {
        self.map.get(&key).map(|c| c.len_at(sn)).unwrap_or(0)
    }

    /// Reads the logical range of `key` designated by a fat pointer.
    pub fn read_range(&self, key: Key, start: u32, len: u32, out: &mut Vec<Vid>) {
        if let Some(cell) = self.map.get(&key) {
            cell.read_range(start, len, out);
        }
    }

    /// Resolves `key` once and visits the neighbours each of its
    /// stream-index postings designates: `f` gets the posting's batch
    /// timestamp and the stored slices of its range, in posting order.
    pub fn read_postings(
        &self,
        key: Key,
        postings: &[Posting],
        mut f: impl FnMut(Timestamp, &[Vid]),
    ) {
        if let Some(cell) = self.map.get(&key) {
            for &(ts, fp) in postings {
                cell.for_each_slice_in_range(fp.start, fp.len, |s| f(ts, s));
            }
        }
    }

    /// Whether triple `(s, p, o)` is visible at snapshot `sn`.
    ///
    /// Scans the smaller of the two adjacency lists.
    pub fn exists_at(&self, s: Vid, p: Pid, o: Vid, sn: SnapshotId) -> bool {
        let out_key = Key::new(s, p, Dir::Out);
        let in_key = Key::new(o, p, Dir::In);
        let (key, needle) = if self.len_at(out_key, sn) <= self.len_at(in_key, sn) {
            (out_key, o)
        } else {
            (in_key, s)
        };
        let mut found = false;
        self.for_each_neighbor(key, sn, |v| found |= v == needle);
        found
    }

    /// Consolidates every cell's intervals with snapshot ≤ `upto` into its
    /// base segment. The caller must guarantee that no in-flight query
    /// reads at a snapshot older than `upto` (see the cell-level method).
    pub fn consolidate(&mut self, upto: SnapshotId) {
        for cell in self.map.values_mut() {
            cell.consolidate(upto);
        }
    }

    /// Largest number of snapshot intervals retained by any cell.
    pub fn max_retained_snapshots(&self) -> usize {
        self.map
            .values()
            .map(ValueCell::retained_snapshots)
            .max()
            .unwrap_or(0)
    }

    /// Approximate heap bytes of the whole store.
    pub fn heap_bytes(&self) -> usize {
        let entry = std::mem::size_of::<(Key, ValueCell)>();
        self.map
            .values()
            .map(|c| c.heap_bytes() + entry)
            .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64, p: u64, o: u64) -> Triple {
        Triple::new(Vid(s), Pid(p), Vid(o))
    }

    #[test]
    fn fig6_base_layout() {
        // Fig. 6: Logan(1) posts T-13(5), T-14(6); index [0|po|in] holds
        // the posted tweets, [0|po|out] holds the posters.
        let po = Pid(4);
        let mut st = BaseStore::new();
        st.insert_base(t(1, 4, 5));
        st.insert_base(t(1, 4, 6));

        let sn = SnapshotId::BASE;
        assert_eq!(
            st.neighbors_at(Key::new(Vid(1), po, Dir::Out), sn),
            vec![Vid(5), Vid(6)]
        );
        assert_eq!(
            st.neighbors_at(Key::index(po, Dir::In), sn),
            vec![Vid(5), Vid(6)]
        );
        // Logan appears once in the subject index despite two posts.
        assert_eq!(st.neighbors_at(Key::index(po, Dir::Out), sn), vec![Vid(1)]);
    }

    #[test]
    fn fig6_injection_updates_all_keys() {
        // Adding ⟨Logan(1), po(4), T-15(7)⟩ under snapshot 1 must append
        // to [1|4|out], create [7|4|in] and extend the in-index.
        let mut st = BaseStore::new();
        st.insert_base(t(1, 4, 5));
        st.insert_base(t(1, 4, 6));

        let mut rc = Vec::new();
        st.insert_at(t(1, 4, 7), SnapshotId(1), &mut rc);

        // Old snapshot readers do not see the new tweet.
        assert_eq!(
            st.neighbors_at(Key::new(Vid(1), Pid(4), Dir::Out), SnapshotId::BASE),
            vec![Vid(5), Vid(6)]
        );
        // Snapshot-1 readers do.
        assert_eq!(
            st.neighbors_at(Key::new(Vid(1), Pid(4), Dir::Out), SnapshotId(1)),
            vec![Vid(5), Vid(6), Vid(7)]
        );
        assert_eq!(
            st.neighbors_at(Key::new(Vid(7), Pid(4), Dir::In), SnapshotId(1)),
            vec![Vid(1)]
        );
        assert_eq!(
            st.neighbors_at(Key::index(Pid(4), Dir::In), SnapshotId(1)),
            vec![Vid(5), Vid(6), Vid(7)]
        );
        // Receipts: out append at offset 2, in append at offset 0, index
        // append at offset 2. Subject index untouched (not Logan's first
        // po-out edge).
        assert_eq!(rc.len(), 3);
        assert_eq!(rc[0].offset, 2);
        assert_eq!(rc[1].offset, 0);
        assert_eq!(rc[2].offset, 2);
    }

    #[test]
    fn read_range_spans_base_and_intervals() {
        let mut st = BaseStore::new();
        st.insert_base(t(1, 4, 5));
        let mut rc = Vec::new();
        st.insert_at(t(1, 4, 6), SnapshotId(1), &mut rc);
        st.insert_at(t(1, 4, 7), SnapshotId(2), &mut rc);

        let key = Key::new(Vid(1), Pid(4), Dir::Out);
        let mut out = Vec::new();
        st.read_range(key, 0, 3, &mut out);
        assert_eq!(out, vec![Vid(5), Vid(6), Vid(7)]);

        out.clear();
        st.read_range(key, 1, 2, &mut out);
        assert_eq!(out, vec![Vid(6), Vid(7)]);

        // Clipped, not panicking, when the range overruns.
        out.clear();
        st.read_range(key, 2, 10, &mut out);
        assert_eq!(out, vec![Vid(7)]);
    }

    #[test]
    fn consolidation_preserves_offsets_and_visibility() {
        let mut st = BaseStore::new();
        st.insert_base(t(1, 4, 5));
        let mut rc = Vec::new();
        st.insert_at(t(1, 4, 6), SnapshotId(1), &mut rc);
        st.insert_at(t(1, 4, 7), SnapshotId(2), &mut rc);

        let key = Key::new(Vid(1), Pid(4), Dir::Out);
        st.consolidate(SnapshotId(1));

        // Offsets are stable across consolidation.
        let mut out = Vec::new();
        st.read_range(key, 1, 1, &mut out);
        assert_eq!(out, vec![Vid(6)]);
        // Snapshot-2 data still gated.
        assert_eq!(st.len_at(key, SnapshotId(1)), 2);
        assert_eq!(st.len_at(key, SnapshotId(2)), 3);
        assert!(st.max_retained_snapshots() <= 1);
    }

    #[test]
    fn exists_checks_either_direction() {
        let mut st = BaseStore::new();
        st.insert_base(t(1, 2, 3));
        let sn = SnapshotId::BASE;
        assert!(st.exists_at(Vid(1), Pid(2), Vid(3), sn));
        assert!(!st.exists_at(Vid(3), Pid(2), Vid(1), sn));
        assert!(!st.exists_at(Vid(1), Pid(9), Vid(3), sn));
    }

    #[test]
    fn snapshot_gating_of_exists() {
        let mut st = BaseStore::new();
        let mut rc = Vec::new();
        st.insert_at(t(1, 2, 3), SnapshotId(5), &mut rc);
        assert!(!st.exists_at(Vid(1), Pid(2), Vid(3), SnapshotId(4)));
        assert!(st.exists_at(Vid(1), Pid(2), Vid(3), SnapshotId(5)));
    }

    #[test]
    fn heap_bytes_grows_with_data() {
        let mut st = BaseStore::new();
        let empty = st.heap_bytes();
        for i in 0..100 {
            st.insert_base(t(1, 2, 10 + i));
        }
        assert!(st.heap_bytes() > empty);
    }
}
