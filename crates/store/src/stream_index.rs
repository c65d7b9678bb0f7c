//! The stream index (§4.2, Fig. 8).
//!
//! After the persistent store absorbs a stream's timeless tuples, the data
//! of one window is sprinkled across the whole store; walking full values
//! to find the tuples of a window would cost O(stored data). The stream
//! index is the fast path: each stream batch maps the keys it appended to
//! onto [`FatPointer`]s into the persistent values, so a window lookup
//! touches only the window's data — "the search space is extremely
//! decreased and independent to the size of stored data".
//!
//! The index is key-major. Per (stream, origin node) it keeps one map
//! from each key to that key's postings: `(batch timestamp, fat pointer)`
//! pairs in time order. A window lookup is one probe plus a binary
//! search, however many batches the window spans. Beside the postings, a
//! small per-batch record (the batch timestamp and the keys it touched,
//! in arrival order) serves the uses that walk batches rather than keys:
//! GC retires whole batches from the old side, catch-up replay inserts a
//! batch at its time-ordered position, and index-vertex scans enumerate
//! the keys of in-window batches. The record's key count is also what
//! locality-aware replication charges per batch.
//!
//! Fat pointers here are `(logical offset, length)` pairs rather than raw
//! addresses (the paper uses a 96-bit address+size pointer): the
//! persistent store is append-only per key, so logical offsets are stable
//! even across snapshot consolidation, which gives the same O(1) range
//! access without unsafe memory.

use std::collections::hash_map::Entry;
use std::collections::VecDeque;
use std::mem::size_of;
use wukong_rdf::{Key, KeyMap, Timestamp, Vid};

use crate::base::{AppendReceipt, BaseStore};

/// A `(start, len)` range within one key's logical neighbour sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FatPointer {
    /// Logical offset of the first neighbour this batch appended.
    pub start: u32,
    /// Number of neighbours appended by this batch.
    pub len: u32,
}

/// The stream-index entries of one stream batch, as built from the
/// injector's receipts and as replicated to subscriber nodes (§4.2).
#[derive(Debug, Clone, Default)]
pub struct IndexBatch {
    /// Batch timestamp.
    pub timestamp: Timestamp,
    /// Keys in first-append order; `pointers[i]` belongs to `keys[i]`.
    keys: Vec<Key>,
    pointers: Vec<FatPointer>,
}

impl IndexBatch {
    /// Bytes one entry costs on the wire when a batch is replicated: the
    /// key, its fat pointer and 16 bytes of framing.
    pub const ENTRY_WIRE_BYTES: usize = size_of::<Key>() + size_of::<FatPointer>() + 16;

    /// Builds an index batch from the injector's append receipts.
    ///
    /// Appends by one batch to one key are contiguous in that key's
    /// logical sequence (the key partition is single-writer), so receipts
    /// coalesce into one fat pointer per key.
    pub fn from_receipts(timestamp: Timestamp, receipts: &[AppendReceipt]) -> Self {
        let mut slot: KeyMap<usize> =
            KeyMap::with_capacity_and_hasher(receipts.len(), Default::default());
        let mut keys = Vec::with_capacity(receipts.len());
        let mut pointers: Vec<FatPointer> = Vec::with_capacity(receipts.len());
        for r in receipts {
            match slot.entry(r.key) {
                Entry::Occupied(e) => {
                    // Receipts of one key may arrive out of order when
                    // multiple injector threads split a batch, but the
                    // offsets still form a contiguous range; track the
                    // minimum start and the count.
                    let fp = &mut pointers[*e.get()];
                    fp.start = fp.start.min(r.offset);
                    fp.len += 1;
                }
                Entry::Vacant(e) => {
                    e.insert(keys.len());
                    keys.push(r.key);
                    pointers.push(FatPointer {
                        start: r.offset,
                        len: 1,
                    });
                }
            }
        }
        if cfg!(debug_assertions) {
            // `len` distinct offsets, all at or above `start`: contiguous
            // exactly when none lies at or past `start + len`.
            for r in receipts {
                let fp = pointers[slot[&r.key]];
                debug_assert!(
                    r.offset < fp.start + fp.len,
                    "receipts for one key must form a contiguous range"
                );
            }
        }
        IndexBatch {
            timestamp,
            keys,
            pointers,
        }
    }

    /// The fat pointer for `key`, if this batch appended to it (a linear
    /// search: window reads go through [`StreamIndex`]).
    pub fn get(&self, key: Key) -> Option<FatPointer> {
        let i = self.keys.iter().position(|&k| k == key)?;
        Some(self.pointers[i])
    }

    /// Visits every key this batch appended to, in first-append order.
    pub fn for_each_key(&self, mut f: impl FnMut(Key)) {
        for &k in &self.keys {
            f(k);
        }
    }

    /// Number of indexed keys.
    pub fn entry_count(&self) -> usize {
        self.keys.len()
    }
}

/// One posting: a batch timestamp and the fat pointer that batch added
/// to a key.
pub type Posting = (Timestamp, FatPointer);

/// One key's postings in time order (equal timestamps in arrival order).
///
/// Most keys are touched by a single live batch, so one posting stays
/// inline; a second spills the key to a vector.
#[derive(Debug, Clone)]
enum Postings {
    One(Posting),
    Many(Vec<Posting>),
}

impl Postings {
    /// Adds `p` at its time-ordered position, after any equal timestamp.
    fn insert(&mut self, p: Posting) {
        match self {
            Postings::One(q) => {
                let pair = if q.0 <= p.0 { [*q, p] } else { [p, *q] };
                *self = Postings::Many(pair.to_vec());
            }
            Postings::Many(v) => {
                let at = v.partition_point(|q| q.0 <= p.0);
                v.insert(at, p);
            }
        }
    }

    /// The newest posting.
    fn newest_mut(&mut self) -> &mut Posting {
        match self {
            Postings::One(p) => p,
            Postings::Many(v) => v.last_mut().expect("a key with no postings is removed"),
        }
    }

    /// Drops every posting older than `expiry`; returns whether any are
    /// left. A key back to one posting moves it inline again.
    fn retire_before(&mut self, expiry: Timestamp) -> bool {
        match self {
            Postings::One(p) => p.0 >= expiry,
            Postings::Many(v) => {
                let n = v.partition_point(|p| p.0 < expiry);
                v.drain(..n);
                let left = !v.is_empty();
                if let [p] = v[..] {
                    *self = Postings::One(p);
                }
                left
            }
        }
    }

    /// The postings with timestamps in `[lo, hi]`, oldest first.
    fn window(&self, lo: Timestamp, hi: Timestamp) -> &[Posting] {
        let all = match self {
            Postings::One(p) => std::slice::from_ref(p),
            Postings::Many(v) => v.as_slice(),
        };
        let from = all.partition_point(|p| p.0 < lo);
        let to = all.partition_point(|p| p.0 <= hi);
        &all[from..to.max(from)]
    }

    /// Heap bytes of a spilled vector (an inline posting has none).
    fn heap_bytes(&self) -> usize {
        match self {
            Postings::One(_) => 0,
            Postings::Many(v) => v.capacity() * size_of::<Posting>(),
        }
    }
}

/// What the index keeps of one batch besides its postings.
#[derive(Debug)]
struct BatchRecord {
    timestamp: Timestamp,
    /// Keys the batch added a posting to, in arrival order.
    keys: Vec<Key>,
}

/// The key-major stream index of one stream (on one node or replica).
#[derive(Debug, Default)]
pub struct StreamIndex {
    postings: KeyMap<Postings>,
    /// Per-batch records in time order (equal timestamps in arrival
    /// order) — the same order every key's postings keep.
    batches: VecDeque<BatchRecord>,
    retired: u64,
}

impl StreamIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a batch at the new side.
    pub fn push_batch(&mut self, batch: IndexBatch) {
        debug_assert!(
            self.newest().is_none_or(|ts| ts <= batch.timestamp),
            "index batches must arrive in time order"
        );
        self.install(batch);
    }

    /// Inserts a batch at its time-ordered position (batches with equal
    /// timestamps keep arrival order). The normal ingest path appends via
    /// [`StreamIndex::push_batch`]; this is the catch-up replay path,
    /// which re-inserts shed tuples at their *original* timestamps after
    /// newer batches have already been appended. Postings and records
    /// both stay sorted, so window scans remain binary searches.
    pub fn insert_batch(&mut self, batch: IndexBatch) {
        self.install(batch);
    }

    fn install(&mut self, batch: IndexBatch) {
        let IndexBatch {
            timestamp,
            keys,
            pointers,
        } = batch;
        for (&key, &fp) in keys.iter().zip(&pointers) {
            match self.postings.entry(key) {
                Entry::Occupied(mut e) => e.get_mut().insert((timestamp, fp)),
                Entry::Vacant(e) => {
                    e.insert(Postings::One((timestamp, fp)));
                }
            }
        }
        let record = BatchRecord { timestamp, keys };
        if self.newest().is_none_or(|ts| ts <= timestamp) {
            self.batches.push_back(record);
        } else {
            let at = self.batches.partition_point(|b| b.timestamp <= timestamp);
            self.batches.insert(at, record);
        }
    }

    /// Appends a batch at the new side straight from the injector's
    /// append receipts, coalescing each key's receipts into its newest
    /// posting — the engine's ingest path, which builds no
    /// [`IndexBatch`]. Returns the batch's entry count (distinct keys).
    pub fn push_receipts(&mut self, timestamp: Timestamp, receipts: &[AppendReceipt]) -> usize {
        debug_assert!(
            self.newest().is_none_or(|ts| ts <= timestamp),
            "index batches must arrive in time order"
        );
        if self.newest() == Some(timestamp) {
            // A key's newest posting at this timestamp may belong to the
            // earlier batch: coalesce this one on its own.
            let batch = IndexBatch::from_receipts(timestamp, receipts);
            let n = batch.entry_count();
            self.install(batch);
            return n;
        }
        // No posting is newer than `timestamp`, and any at it is this
        // batch's own.
        let mut keys = Vec::with_capacity(receipts.len());
        for r in receipts {
            let fresh = (
                timestamp,
                FatPointer {
                    start: r.offset,
                    len: 1,
                },
            );
            match self.postings.entry(r.key) {
                Entry::Occupied(e) => {
                    let postings = e.into_mut();
                    let newest = postings.newest_mut();
                    if newest.0 == timestamp {
                        newest.1.start = newest.1.start.min(r.offset);
                        newest.1.len += 1;
                    } else {
                        postings.insert(fresh);
                        keys.push(r.key);
                    }
                }
                Entry::Vacant(e) => {
                    e.insert(Postings::One(fresh));
                    keys.push(r.key);
                }
            }
        }
        let n = keys.len();
        self.batches.push_back(BatchRecord { timestamp, keys });
        n
    }

    fn newest(&self) -> Option<Timestamp> {
        self.batches.back().map(|b| b.timestamp)
    }

    /// Retires every batch older than `expiry` (exclusive), mirroring the
    /// transient store's GC, and drops its postings. Returns the number
    /// retired.
    pub fn retire_expired(&mut self, expiry: Timestamp) -> usize {
        let n = self.batches.partition_point(|b| b.timestamp < expiry);
        for record in self.batches.drain(..n) {
            // The postings older than `expiry` are exactly those of the
            // retired records; a key listed twice is dropped at its first
            // visit.
            for key in record.keys {
                if let Entry::Occupied(mut e) = self.postings.entry(key) {
                    if !e.get_mut().retire_before(expiry) {
                        e.remove();
                    }
                }
            }
        }
        self.retired += n as u64;
        n
    }

    /// `key`'s postings for batches in `[lo, hi]`, in time order: one
    /// probe plus a binary search, however many batches the window spans.
    ///
    /// This is also the delta-scan primitive of the incremental execution
    /// mode: a firing over a window that overlaps its predecessor asks
    /// only for the inserted suffix `(prev_end, new_end]` and the
    /// expired prefix `[prev_start, new_start)`, and tags every binding
    /// row with the timestamps of its contributing edges so expired rows
    /// can later be retracted without a rescan.
    pub fn postings_in(&self, key: Key, lo: Timestamp, hi: Timestamp) -> &[Posting] {
        self.postings.get(&key).map_or(&[], |p| p.window(lo, hi))
    }

    /// Collects `key`'s neighbours appended by batches in `[lo, hi]`,
    /// reading the ranges out of `store` via the fat pointers.
    pub fn neighbors_in(
        &self,
        store: &BaseStore,
        key: Key,
        lo: Timestamp,
        hi: Timestamp,
        out: &mut Vec<Vid>,
    ) {
        store.read_postings(key, self.postings_in(key, lo, hi), |_, s| {
            out.extend_from_slice(s)
        });
    }

    /// Visits the fat pointers of `key` for batches in `[lo, hi]`.
    pub fn for_each_pointer_in(
        &self,
        key: Key,
        lo: Timestamp,
        hi: Timestamp,
        mut f: impl FnMut(FatPointer),
    ) {
        self.for_each_pointer_timed_in(key, lo, hi, |_, fp| f(fp));
    }

    /// Visits the fat pointers of `key` for batches in `[lo, hi]` in time
    /// order, handing each pointer's batch timestamp to the callback.
    pub fn for_each_pointer_timed_in(
        &self,
        key: Key,
        lo: Timestamp,
        hi: Timestamp,
        mut f: impl FnMut(Timestamp, FatPointer),
    ) {
        for &(ts, fp) in self.postings_in(key, lo, hi) {
            f(ts, fp);
        }
    }

    /// Collects `key`'s neighbours appended in `[lo, hi]` together with
    /// their batch timestamps — the timed twin of [`Self::neighbors_in`].
    pub fn neighbors_timed_in(
        &self,
        store: &BaseStore,
        key: Key,
        lo: Timestamp,
        hi: Timestamp,
        out: &mut Vec<(Vid, Timestamp)>,
    ) {
        store.read_postings(key, self.postings_in(key, lo, hi), |ts, s| {
            out.extend(s.iter().map(|&v| (v, ts)))
        });
    }

    /// Total neighbours `key` gained in `[lo, hi]` (for planner costs).
    pub fn count_in(&self, key: Key, lo: Timestamp, hi: Timestamp) -> usize {
        self.postings_in(key, lo, hi)
            .iter()
            .map(|(_, fp)| fp.len as usize)
            .sum()
    }

    /// Collects the vertices that gained a `pid` edge in direction `dir`
    /// during `[lo, hi]` — the window equivalent of an index-vertex scan.
    ///
    /// Enumerating touched keys, rather than following the index vertex's
    /// own fat pointers, is what makes window scans *complete*: a vertex
    /// whose first `pid` edge predates the window never re-enters the
    /// persistent index, but its key is touched by every batch that
    /// appends to it. Callers should deduplicate (a vertex may act in
    /// several batches of one window).
    pub fn vertices_in(
        &self,
        pid: wukong_rdf::Pid,
        dir: wukong_rdf::Dir,
        lo: Timestamp,
        hi: Timestamp,
        out: &mut Vec<Vid>,
    ) {
        let start = self.batches.partition_point(|b| b.timestamp < lo);
        for b in self.batches.range(start..) {
            if b.timestamp > hi {
                break;
            }
            for k in &b.keys {
                if !k.is_index() && k.pid() == pid && k.dir() == dir {
                    out.push(k.vid());
                }
            }
        }
    }

    /// Number of live batches.
    pub fn batch_count(&self) -> usize {
        self.batches.len()
    }

    /// Batches retired so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Approximate heap bytes of the index as laid out: the key →
    /// postings table (one `(Key, Postings)` slot plus one control byte
    /// per bucket; a table's capacity is 7/8 of its buckets), the vectors
    /// of keys with more than one posting, and the per-batch records
    /// with their key lists. Only fat pointers are counted because only
    /// fat pointers are stored: the data stays in the persistent store.
    pub fn heap_bytes(&self) -> usize {
        let slot = size_of::<(Key, Postings)>() + 1;
        let table = self.postings.capacity() * 8 / 7 * slot;
        let spilled: usize = self.postings.values().map(Postings::heap_bytes).sum();
        let records = self.batches.capacity() * size_of::<BatchRecord>()
            + self
                .batches
                .iter()
                .map(|b| b.keys.capacity() * size_of::<Key>())
                .sum::<usize>();
        table + spilled + records
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SnapshotId;
    use wukong_rdf::{Dir, Pid, Triple};

    fn t(s: u64, p: u64, o: u64) -> Triple {
        Triple::new(Vid(s), Pid(p), Vid(o))
    }

    /// Injects a batch of triples and indexes it, like the Injector does.
    fn inject(
        store: &mut BaseStore,
        index: &mut StreamIndex,
        ts: Timestamp,
        sn: SnapshotId,
        triples: &[Triple],
    ) {
        let mut rc = Vec::new();
        for &tr in triples {
            store.insert_at(tr, sn, &mut rc);
        }
        index.push_batch(IndexBatch::from_receipts(ts, &rc));
    }

    #[test]
    fn owner_partitioned_batches_cover_the_global_build() {
        use crate::sharding::ShardMap;
        // Parallel ingest builds one IndexBatch per node from that node's
        // own receipts. Per-node batches must be key-disjoint and, taken
        // together, reproduce the single batch a serial injector would
        // have built from the concatenated receipts.
        let receipts: Vec<AppendReceipt> = (0..120u64)
            .map(|i| AppendReceipt {
                key: Key::new(
                    Vid(i % 17 + 1),
                    Pid(i % 5 + 1),
                    if i % 2 == 0 { Dir::Out } else { Dir::In },
                ),
                offset: (i / 17) as u32,
            })
            .collect();
        let global = IndexBatch::from_receipts(900, &receipts);
        let map = ShardMap::new(4);
        let per_node: Vec<IndexBatch> = (0..4u16)
            .map(|n| {
                let owns = map.owner_filter(n);
                let rc: Vec<AppendReceipt> =
                    receipts.iter().filter(|r| owns(r.key)).copied().collect();
                IndexBatch::from_receipts(900, &rc)
            })
            .collect();
        assert_eq!(
            per_node.iter().map(IndexBatch::entry_count).sum::<usize>(),
            global.entry_count(),
            "node batches must be key-disjoint and jointly complete"
        );
        global.for_each_key(|k| {
            let node = map.node_of_key(k) as usize;
            assert_eq!(per_node[node].get(k), global.get(k), "{k:?}");
        });
    }

    #[test]
    fn fig8_window_lookup() {
        // Fig. 8: likes of T-15(7) arrive at 0806 (Erik,Tony,Bruce), 0810
        // (Clint,Steve) and 0812 (Thor). A window [0807, 0811] must return
        // exactly Clint and Steve via the stream index.
        let li = 3;
        let mut store = BaseStore::new();
        let mut idx = StreamIndex::new();
        inject(
            &mut store,
            &mut idx,
            806,
            SnapshotId(1),
            &[t(2, li, 7), t(9, li, 7), t(10, li, 7)],
        );
        inject(
            &mut store,
            &mut idx,
            810,
            SnapshotId(1),
            &[t(12, li, 7), t(13, li, 7)],
        );
        inject(&mut store, &mut idx, 812, SnapshotId(2), &[t(14, li, 7)]);

        let key = Key::new(Vid(7), Pid(li), Dir::In);
        let mut out = Vec::new();
        idx.neighbors_in(&store, key, 807, 811, &mut out);
        assert_eq!(out, vec![Vid(12), Vid(13)]);

        // The full value holds all six likers; the index walked only two.
        assert_eq!(store.len_at(key, SnapshotId(2)), 6);
        assert_eq!(idx.count_in(key, 807, 811), 2);
    }

    #[test]
    fn pointers_survive_consolidation() {
        let mut store = BaseStore::new();
        let mut idx = StreamIndex::new();
        inject(&mut store, &mut idx, 100, SnapshotId(1), &[t(1, 2, 3)]);
        inject(&mut store, &mut idx, 200, SnapshotId(2), &[t(1, 2, 4)]);
        store.consolidate(SnapshotId(2));

        let key = Key::new(Vid(1), Pid(2), Dir::Out);
        let mut out = Vec::new();
        idx.neighbors_in(&store, key, 200, 200, &mut out);
        assert_eq!(out, vec![Vid(4)]);
    }

    #[test]
    fn retire_drops_old_batches_only() {
        let mut store = BaseStore::new();
        let mut idx = StreamIndex::new();
        for (i, ts) in [100u64, 200, 300].iter().enumerate() {
            inject(
                &mut store,
                &mut idx,
                *ts,
                SnapshotId(1),
                &[t(1, 2, 50 + i as u64)],
            );
        }
        assert_eq!(idx.retire_expired(250), 2);
        assert_eq!(idx.batch_count(), 1);

        let key = Key::new(Vid(1), Pid(2), Dir::Out);
        // The retired window no longer resolves through the index…
        let mut out = Vec::new();
        idx.neighbors_in(&store, key, 0, 249, &mut out);
        assert!(out.is_empty());
        // …but the data itself is still in the persistent store.
        assert_eq!(store.len_at(key, SnapshotId(1)), 3);
    }

    #[test]
    fn multi_append_batch_coalesces_to_one_pointer() {
        let mut store = BaseStore::new();
        let mut idx = StreamIndex::new();
        // Three likes of the same tweet in one batch → one fat pointer of
        // length 3 on the in-key.
        inject(
            &mut store,
            &mut idx,
            100,
            SnapshotId(1),
            &[t(1, 2, 9), t(3, 2, 9), t(4, 2, 9)],
        );
        let key = Key::new(Vid(9), Pid(2), Dir::In);
        let mut ptrs = Vec::new();
        idx.for_each_pointer_in(key, 100, 100, |fp| ptrs.push(fp));
        assert_eq!(ptrs, vec![FatPointer { start: 0, len: 3 }]);
    }

    #[test]
    fn timed_scan_matches_untimed_and_tags_batch_timestamps() {
        let li = 3;
        let mut store = BaseStore::new();
        let mut idx = StreamIndex::new();
        inject(
            &mut store,
            &mut idx,
            806,
            SnapshotId(1),
            &[t(2, li, 7), t(9, li, 7)],
        );
        inject(
            &mut store,
            &mut idx,
            810,
            SnapshotId(1),
            &[t(12, li, 7), t(13, li, 7)],
        );
        inject(&mut store, &mut idx, 812, SnapshotId(2), &[t(14, li, 7)]);

        let key = Key::new(Vid(7), Pid(li), Dir::In);
        // The inserted suffix of a slide from [801, 810] to [803, 812].
        let mut timed = Vec::new();
        idx.neighbors_timed_in(&store, key, 811, 812, &mut timed);
        assert_eq!(timed, vec![(Vid(14), 812)]);

        // Over the full range, the timed scan is the untimed scan plus
        // per-edge batch timestamps, in the same order.
        let mut untimed = Vec::new();
        idx.neighbors_in(&store, key, 0, 999, &mut untimed);
        timed.clear();
        idx.neighbors_timed_in(&store, key, 0, 999, &mut timed);
        assert_eq!(timed.iter().map(|&(v, _)| v).collect::<Vec<_>>(), untimed);
        assert_eq!(
            timed.iter().map(|&(_, ts)| ts).collect::<Vec<_>>(),
            vec![806, 806, 810, 810, 812]
        );
    }

    #[test]
    fn contiguous_range_invariant_survives_consolidation() {
        // Delta scans resolve fat pointers against the *consolidated*
        // store; that is only sound because (a) receipts of one key in one
        // batch form a contiguous logical range (the from_receipts
        // debug_assert) and (b) logical offsets are stable across snapshot
        // consolidation. Pin both halves: interleave two keys so receipt
        // offsets per key are non-trivial, consolidate, and check every
        // pointer still resolves to its own batch's edges.
        let mut store = BaseStore::new();
        let mut idx = StreamIndex::new();
        inject(
            &mut store,
            &mut idx,
            100,
            SnapshotId(1),
            &[t(1, 2, 10), t(5, 2, 11), t(1, 2, 12), t(5, 2, 13)],
        );
        inject(
            &mut store,
            &mut idx,
            200,
            SnapshotId(2),
            &[t(1, 2, 14), t(5, 2, 15), t(1, 2, 16)],
        );
        store.consolidate(SnapshotId(2));

        let k1 = Key::new(Vid(1), Pid(2), Dir::Out);
        let k5 = Key::new(Vid(5), Pid(2), Dir::Out);
        // Per-batch pointers are contiguous per key…
        let mut ptrs = Vec::new();
        idx.for_each_pointer_timed_in(k1, 0, 999, |ts, fp| ptrs.push((ts, fp)));
        assert_eq!(
            ptrs,
            vec![
                (100, FatPointer { start: 0, len: 2 }),
                (200, FatPointer { start: 2, len: 2 }),
            ]
        );
        // …and resolve, post-consolidation, to exactly their batch's edges.
        let mut out = Vec::new();
        idx.neighbors_timed_in(&store, k1, 200, 200, &mut out);
        assert_eq!(out, vec![(Vid(14), 200), (Vid(16), 200)]);
        out.clear();
        idx.neighbors_timed_in(&store, k5, 100, 100, &mut out);
        assert_eq!(out, vec![(Vid(11), 100), (Vid(13), 100)]);
        out.clear();
        idx.neighbors_timed_in(&store, k5, 200, 200, &mut out);
        assert_eq!(out, vec![(Vid(15), 200)]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "contiguous range")]
    fn non_contiguous_receipts_for_one_key_are_rejected() {
        // The delta scan depends on one-pointer-per-key-per-batch; a
        // receipt set with a hole (offsets 0 and 2, nothing at 1) must
        // trip the from_receipts invariant in debug builds.
        let key = Key::new(Vid(1), Pid(2), Dir::Out);
        let receipts = [
            AppendReceipt { key, offset: 0 },
            AppendReceipt { key, offset: 2 },
        ];
        let _ = IndexBatch::from_receipts(100, &receipts);
    }

    #[test]
    fn insert_batch_keeps_time_order_for_replay() {
        // Catch-up replay re-inserts shed tuples at their original (now
        // old) timestamps: appends land at fresh logical offsets, but the
        // index batch must slot into time order so window scans that
        // binary-search on timestamps still see it.
        let mut store = BaseStore::new();
        let mut idx = StreamIndex::new();
        inject(&mut store, &mut idx, 100, SnapshotId(1), &[t(1, 2, 10)]);
        inject(&mut store, &mut idx, 300, SnapshotId(1), &[t(1, 2, 30)]);

        // Replay a batch at the (old) timestamp 200.
        let mut rc = Vec::new();
        store.insert_at(t(1, 2, 20), SnapshotId(2), &mut rc);
        idx.insert_batch(IndexBatch::from_receipts(200, &rc));

        let key = Key::new(Vid(1), Pid(2), Dir::Out);
        let mut out = Vec::new();
        idx.neighbors_in(&store, key, 150, 250, &mut out);
        assert_eq!(out, vec![Vid(20)], "window scan finds the replayed batch");
        out.clear();
        idx.neighbors_in(&store, key, 0, 999, &mut out);
        assert_eq!(out, vec![Vid(10), Vid(20), Vid(30)], "time order restored");

        // Equal timestamps keep arrival order; a replay at the newest
        // timestamp appends.
        let mut rc = Vec::new();
        store.insert_at(t(1, 2, 31), SnapshotId(2), &mut rc);
        idx.insert_batch(IndexBatch::from_receipts(300, &rc));
        out.clear();
        idx.neighbors_in(&store, key, 300, 300, &mut out);
        assert_eq!(out, vec![Vid(30), Vid(31)]);

        // GC still retires from the front across replayed batches.
        assert_eq!(idx.retire_expired(250), 2);
        assert_eq!(idx.batch_count(), 2);
    }

    #[test]
    fn index_smaller_than_data() {
        // Table 7's premise: the index is a small fraction of raw data.
        let mut store = BaseStore::new();
        let mut idx = StreamIndex::new();
        for batch in 0..10u64 {
            let triples: Vec<_> = (0..100).map(|i| t(batch * 100 + i, 2, 7)).collect();
            inject(&mut store, &mut idx, batch * 100, SnapshotId(1), &triples);
        }
        assert!(idx.heap_bytes() < store.heap_bytes());
    }
}
