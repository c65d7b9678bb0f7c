//! The time-based transient store (§4.1, Fig. 7).
//!
//! Timing data (e.g. GPS positions) is only ever read by continuous
//! queries through their windows, so it never enters the persistent store.
//! Each stream gets a [`TransientStore`]: a bounded ring of
//! [`TransientSlice`]s, one per stream batch, appended at the new side by
//! the injector and freed at the old side by the garbage collector. A
//! slice carries a small per-batch adjacency index so window lookups are
//! key-addressed rather than scans.

use std::collections::VecDeque;
use wukong_rdf::{Key, KeyMap, StreamTuple, Timestamp, Vid};

/// The timing data of one stream batch.
#[derive(Debug, Clone, Default)]
pub struct TransientSlice {
    /// Batch timestamp (the Adaptor groups tuples by timestamp, §3).
    pub timestamp: Timestamp,
    /// Per-batch adjacency: key → neighbours, both edge directions.
    adj: KeyMap<Vec<Vid>>,
    tuples: usize,
}

impl TransientSlice {
    /// Builds a slice from one batch of timing tuples.
    ///
    /// Besides the two data keys of each tuple, the slice maintains the
    /// index-vertex keys (`[0|p|d]`, duplicate-free within the slice) so
    /// unanchored patterns over timing streams can start from a predicate
    /// index exactly like they do on the persistent store.
    pub fn from_batch(timestamp: Timestamp, tuples: &[StreamTuple]) -> Self {
        Self::from_batch_filtered(timestamp, tuples, |_| true)
    }

    /// Like [`TransientSlice::from_batch`], keeping only entries whose key
    /// satisfies `owns` — the distributed path routes each key's entries
    /// to its owner node, so no node stores another node's slice data.
    pub fn from_batch_filtered(
        timestamp: Timestamp,
        tuples: &[StreamTuple],
        owns: impl Fn(Key) -> bool,
    ) -> Self {
        let mut adj: KeyMap<Vec<Vid>> = KeyMap::default();
        // Per-slice dedup of index entries, independent of which data
        // keys this node owns.
        let mut seen: std::collections::HashSet<Key> = std::collections::HashSet::new();
        for t in tuples {
            debug_assert!(!t.is_timeless(), "timeless tuple routed to transient store");
            let out_key = t.triple.out_key();
            let in_key = t.triple.in_key();
            if owns(out_key) {
                adj.entry(out_key).or_default().push(t.triple.o);
            }
            if owns(in_key) {
                adj.entry(in_key).or_default().push(t.triple.s);
            }
            let idx_out = Key::index(t.triple.p, wukong_rdf::Dir::Out);
            if owns(idx_out) && seen.insert(out_key) {
                adj.entry(idx_out).or_default().push(t.triple.s);
            }
            let idx_in = Key::index(t.triple.p, wukong_rdf::Dir::In);
            if owns(idx_in) && seen.insert(in_key) {
                adj.entry(idx_in).or_default().push(t.triple.o);
            }
        }
        TransientSlice {
            timestamp,
            adj,
            tuples: tuples.len(),
        }
    }

    /// Neighbours of `key` within this batch.
    pub fn neighbors(&self, key: Key) -> &[Vid] {
        self.adj.get(&key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of tuples in the batch.
    pub fn tuple_count(&self) -> usize {
        self.tuples
    }

    /// Approximate heap bytes of the slice.
    pub fn heap_bytes(&self) -> usize {
        let entry = std::mem::size_of::<(Key, Vec<Vid>)>();
        self.adj
            .values()
            .map(|v| v.capacity() * std::mem::size_of::<Vid>() + entry)
            .sum()
    }
}

/// A bounded, time-ordered ring of transient slices for one stream.
#[derive(Debug)]
pub struct TransientStore {
    slices: VecDeque<TransientSlice>,
    /// Memory budget in bytes ("a contiguous ring buffer with fixed
    /// user-defined memory budget", §4.1).
    budget_bytes: usize,
    used_bytes: usize,
    evicted_slices: u64,
    /// Highest timestamp of any evicted slice — the watermark below
    /// which window reads may be incomplete. A window `(lo, hi]` fired
    /// with `lo < evicted_upto` must carry a degraded marker: the data
    /// it would have read aged out (GC) or was squeezed out (budget).
    evicted_upto: Timestamp,
}

impl TransientStore {
    /// Creates a transient store with the given memory budget.
    pub fn new(budget_bytes: usize) -> Self {
        TransientStore {
            slices: VecDeque::new(),
            budget_bytes,
            used_bytes: 0,
            evicted_slices: 0,
            evicted_upto: 0,
        }
    }

    /// Appends a batch at the new side.
    ///
    /// If the budget is exceeded the oldest slices are evicted immediately
    /// (the "explicitly invoked when the ring buffer is full" GC path).
    pub fn push_batch(&mut self, slice: TransientSlice) {
        debug_assert!(
            self.slices
                .back()
                .map(|s| s.timestamp <= slice.timestamp)
                .unwrap_or(true),
            "batches must arrive in time order"
        );
        self.used_bytes += slice.heap_bytes();
        self.slices.push_back(slice);
        while self.used_bytes > self.budget_bytes && self.slices.len() > 1 {
            self.evict_oldest();
        }
    }

    /// Inserts a slice at its time-ordered position (slices with equal
    /// timestamps keep arrival order), then enforces the budget. The
    /// normal ingest path appends via [`TransientStore::push_batch`];
    /// this is the catch-up replay path, which re-inserts shed timing
    /// tuples at their *original* timestamps after newer slices were
    /// already appended. The deque stays sorted, so the
    /// `partition_point` window scans remain correct.
    pub fn insert_slice(&mut self, slice: TransientSlice) {
        let pos = self
            .slices
            .partition_point(|s| s.timestamp <= slice.timestamp);
        self.used_bytes += slice.heap_bytes();
        if pos == self.slices.len() {
            self.slices.push_back(slice);
        } else {
            self.slices.insert(pos, slice);
        }
        while self.used_bytes > self.budget_bytes && self.slices.len() > 1 {
            self.evict_oldest();
        }
    }

    /// Frees every slice older than `expiry` (exclusive). Returns the
    /// number of slices freed. This is the periodic background GC path.
    pub fn collect_expired(&mut self, expiry: Timestamp) -> usize {
        let mut freed = 0;
        while let Some(front) = self.slices.front() {
            if front.timestamp >= expiry {
                break;
            }
            self.evict_oldest();
            freed += 1;
        }
        freed
    }

    fn evict_oldest(&mut self) {
        if let Some(s) = self.slices.pop_front() {
            self.used_bytes -= s.heap_bytes();
            self.evicted_slices += 1;
            self.evicted_upto = self.evicted_upto.max(s.timestamp);
        }
    }

    /// Visits the slices whose timestamp lies in `[lo, hi]`.
    pub fn for_each_slice_in(
        &self,
        lo: Timestamp,
        hi: Timestamp,
        mut f: impl FnMut(&TransientSlice),
    ) {
        // Slices are time-ordered; binary-search the start.
        let start = self.slices.partition_point(|s| s.timestamp < lo);
        for s in self.slices.iter().skip(start) {
            if s.timestamp > hi {
                break;
            }
            f(s);
        }
    }

    /// Neighbours of `key` across every batch in `[lo, hi]`.
    pub fn neighbors_in(&self, key: Key, lo: Timestamp, hi: Timestamp) -> Vec<Vid> {
        let mut out = Vec::new();
        self.for_each_slice_in(lo, hi, |s| out.extend_from_slice(s.neighbors(key)));
        out
    }

    /// Number of live slices.
    pub fn slice_count(&self) -> usize {
        self.slices.len()
    }

    /// Slices evicted so far (by budget or GC).
    pub fn evicted_slices(&self) -> u64 {
        self.evicted_slices
    }

    /// Highest timestamp ever evicted (0 when nothing was): the aging
    /// watermark a firing compares its window's `lo` against.
    pub fn evicted_upto(&self) -> Timestamp {
        self.evicted_upto
    }

    /// Current heap usage in bytes.
    pub fn used_bytes(&self) -> usize {
        self.used_bytes
    }

    /// Whether any live slice holds an adjacency entry. When none does,
    /// every window read comes back empty, so readers skip the ring — a
    /// stream without timing predicates stays that way for good.
    pub fn has_entries(&self) -> bool {
        // Every entry charges its slot to `used_bytes`.
        self.used_bytes > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wukong_rdf::{Pid, Triple};

    fn timing(s: u64, p: u64, o: u64, ts: Timestamp) -> StreamTuple {
        StreamTuple::timing(Triple::new(Vid(s), Pid(p), Vid(o)), ts)
    }

    fn slice(ts: Timestamp, n: usize) -> TransientSlice {
        let batch: Vec<_> = (0..n as u64)
            .map(|i| timing(i + 1, 1, 100 + i, ts))
            .collect();
        TransientSlice::from_batch(ts, &batch)
    }

    #[test]
    fn slice_indexes_both_directions() {
        let s = TransientSlice::from_batch(800, &[timing(1, 2, 3, 800)]);
        assert_eq!(
            s.neighbors(Key::new(Vid(1), Pid(2), wukong_rdf::Dir::Out)),
            &[Vid(3)]
        );
        assert_eq!(
            s.neighbors(Key::new(Vid(3), Pid(2), wukong_rdf::Dir::In)),
            &[Vid(1)]
        );
        assert_eq!(s.tuple_count(), 1);
    }

    #[test]
    fn owner_filtered_slices_partition_the_batch() {
        use crate::sharding::ShardMap;
        // Parallel ingest gives each node's task its own owner-filtered
        // slice. For every key, exactly one node's slice carries it, and
        // it carries exactly the unfiltered slice's neighbour list — so
        // per-node slices built concurrently are equivalent to one serial
        // full build, just sharded.
        let batch: Vec<_> = (0..64u64)
            .map(|i| timing(i % 13 + 1, i % 4 + 1, 200 + i % 9, 500))
            .collect();
        let full = TransientSlice::from_batch(500, &batch);
        let map = ShardMap::new(4);
        let shards: Vec<_> = (0..4u16)
            .map(|n| TransientSlice::from_batch_filtered(500, &batch, map.owner_filter(n)))
            .collect();
        let mut keys: Vec<Key> = Vec::new();
        for t in &batch {
            keys.push(t.triple.out_key());
            keys.push(t.triple.in_key());
            keys.push(Key::index(t.triple.p, wukong_rdf::Dir::Out));
            keys.push(Key::index(t.triple.p, wukong_rdf::Dir::In));
        }
        keys.sort_unstable();
        keys.dedup();
        for key in keys {
            let holders: Vec<&TransientSlice> = shards
                .iter()
                .filter(|s| !s.neighbors(key).is_empty())
                .collect();
            assert!(holders.len() <= 1, "{key:?} held by more than one node");
            let merged = holders.first().map(|s| s.neighbors(key)).unwrap_or(&[]);
            assert_eq!(merged, full.neighbors(key), "{key:?}");
        }
    }

    #[test]
    fn window_lookup_covers_range_inclusive() {
        let mut st = TransientStore::new(1 << 20);
        for ts in [100, 200, 300, 400] {
            st.push_batch(TransientSlice::from_batch(ts, &[timing(1, 2, ts, ts)]));
        }
        let key = Key::new(Vid(1), Pid(2), wukong_rdf::Dir::Out);
        let got = st.neighbors_in(key, 200, 300);
        assert_eq!(got, vec![Vid(200), Vid(300)]);
    }

    #[test]
    fn gc_frees_only_expired() {
        let mut st = TransientStore::new(1 << 20);
        for ts in [100, 200, 300] {
            st.push_batch(slice(ts, 4));
        }
        assert_eq!(st.collect_expired(250), 2);
        assert_eq!(st.slice_count(), 1);
        assert_eq!(st.evicted_slices(), 2);
        // Remaining slice still queryable.
        assert!(!st
            .neighbors_in(Key::new(Vid(1), Pid(1), wukong_rdf::Dir::Out), 0, 999)
            .is_empty());
    }

    #[test]
    fn budget_forces_eviction() {
        let tiny = slice(0, 4).heap_bytes() * 2;
        let mut st = TransientStore::new(tiny);
        for ts in 0..10 {
            st.push_batch(slice(ts, 4));
        }
        assert!(st.used_bytes() <= tiny || st.slice_count() == 1);
        assert!(st.evicted_slices() > 0);
    }

    #[test]
    fn insert_slice_keeps_time_order_for_replay() {
        let mut st = TransientStore::new(1 << 20);
        for ts in [100, 300] {
            st.push_batch(TransientSlice::from_batch(ts, &[timing(1, 2, ts, ts)]));
        }
        // Replay a shed slice at the old timestamp 200.
        st.insert_slice(TransientSlice::from_batch(200, &[timing(1, 2, 200, 200)]));
        let key = Key::new(Vid(1), Pid(2), wukong_rdf::Dir::Out);
        assert_eq!(st.neighbors_in(key, 150, 250), vec![Vid(200)]);
        assert_eq!(
            st.neighbors_in(key, 0, 999),
            vec![Vid(100), Vid(200), Vid(300)]
        );
        // GC sweeps replayed slices like any other.
        assert_eq!(st.collect_expired(250), 2);
        assert_eq!(st.neighbors_in(key, 0, 999), vec![Vid(300)]);
    }

    #[test]
    fn has_entries_tracks_live_timing_data() {
        let mut st = TransientStore::new(1 << 20);
        // A timeless-only stream pushes an empty slice every batch.
        st.push_batch(TransientSlice::from_batch(100, &[]));
        assert!(!st.has_entries());
        st.push_batch(TransientSlice::from_batch(200, &[timing(1, 2, 3, 200)]));
        assert!(st.has_entries());
        st.collect_expired(250);
        assert!(!st.has_entries(), "the last timing slice aged out");
    }

    #[test]
    fn empty_window_is_empty() {
        let st = TransientStore::new(1 << 20);
        assert!(st
            .neighbors_in(Key::new(Vid(1), Pid(1), wukong_rdf::Dir::Out), 0, 100)
            .is_empty());
    }
}
