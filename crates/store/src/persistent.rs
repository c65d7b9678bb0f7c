//! One node's shard of the continuous persistent store (§4.1).
//!
//! The shard statically partitions its key space (the paper assigns one
//! partition per injector thread "which can avoid using locks during
//! injection"; here every partition has a reader/writer lock so concurrent
//! queries read while an injector writes). Keys partition by vertex —
//! keeping a vertex's `in` and `out` lists together — and index-vertex
//! keys spread by raw key hash.
//!
//! Batches are injected one at a time per shard (the paper's per-node
//! Injector drains Dispatcher output sequentially); within a batch,
//! multiple threads may call [`PersistentShard::inject_triple`] on
//! disjoint triples.

use crate::base::{AppendReceipt, BaseStore};
use crate::snapshot::SnapshotId;
use crate::stream_index::Posting;
use parking_lot::{Mutex, RwLock};
use wukong_rdf::{Dir, Key, Pid, Timestamp, Triple, Vid};

/// A lock-partitioned store shard.
pub struct PersistentShard {
    parts: Vec<RwLock<BaseStore>>,
    /// Serialises batches: at most one stream batch injects at a time, so
    /// one batch's appends to any key are contiguous (the stream-index
    /// contiguity invariant).
    batch_lock: Mutex<()>,
}

impl PersistentShard {
    /// Creates a shard with `partitions` key-space partitions.
    ///
    /// # Panics
    ///
    /// Panics if `partitions` is zero.
    pub fn new(partitions: usize) -> Self {
        assert!(partitions > 0, "a shard needs at least one partition");
        PersistentShard {
            parts: (0..partitions)
                .map(|_| RwLock::new(BaseStore::new()))
                .collect(),
            batch_lock: Mutex::new(()),
        }
    }

    fn part_of(&self, key: Key) -> usize {
        let h = if key.is_index() {
            key.raw()
        } else {
            key.vid().0
        };
        (h.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 16) as usize % self.parts.len()
    }

    /// Loads one triple of the initial dataset (snapshot 0).
    pub fn load_base(&self, t: Triple) {
        let mut receipts = Vec::new();
        self.inject_triple(t, SnapshotId::BASE, &mut receipts);
    }

    /// Appends one owned key update, for callers that route key updates
    /// to owner shards themselves (the distributed injection path, where
    /// a triple's four key updates may land on different shards).
    ///
    /// Returns the logical offset and whether the key was empty before —
    /// the first-edge signal that drives index-vertex maintenance.
    pub fn append_owned(
        &self,
        key: Key,
        v: Vid,
        sn: SnapshotId,
        merge_upto: Option<SnapshotId>,
    ) -> (u32, bool) {
        self.parts[self.part_of(key)]
            .write()
            .append_edge_merging(key, v, sn, merge_upto)
    }

    /// Counts one triple against this shard (the distributed path counts
    /// a triple on its subject key's owner only).
    pub fn count_triple(&self) {
        self.parts[0].write().note_triple();
    }

    /// Injects one triple under snapshot `sn`, appending receipts.
    ///
    /// The first-edge check and the data append happen atomically under
    /// the data key's partition lock, so the index stays duplicate-free
    /// under concurrent injection of disjoint triples.
    pub fn inject_triple(&self, t: Triple, sn: SnapshotId, receipts: &mut Vec<AppendReceipt>) {
        self.inject_triple_merging(t, sn, None, receipts)
    }

    /// Like [`PersistentShard::inject_triple`], consolidating each touched
    /// cell's intervals up to `merge_upto` along the way (injection-time
    /// snapshot recycling, §4.3).
    pub fn inject_triple_merging(
        &self,
        t: Triple,
        sn: SnapshotId,
        merge_upto: Option<SnapshotId>,
        receipts: &mut Vec<AppendReceipt>,
    ) {
        let out_key = t.out_key();
        let (off, first_out) = {
            let mut p = self.parts[self.part_of(out_key)].write();
            p.note_triple();
            p.append_edge_merging(out_key, t.o, sn, merge_upto)
        };
        receipts.push(AppendReceipt {
            key: out_key,
            offset: off,
        });

        let in_key = t.in_key();
        let (off, first_in) = {
            let mut p = self.parts[self.part_of(in_key)].write();
            p.append_edge_merging(in_key, t.s, sn, merge_upto)
        };
        receipts.push(AppendReceipt {
            key: in_key,
            offset: off,
        });

        if first_out {
            let k = Key::index(t.p, Dir::Out);
            let (off, _) = self.parts[self.part_of(k)]
                .write()
                .append_edge_merging(k, t.s, sn, merge_upto);
            receipts.push(AppendReceipt {
                key: k,
                offset: off,
            });
        }
        if first_in {
            let k = Key::index(t.p, Dir::In);
            let (off, _) = self.parts[self.part_of(k)]
                .write()
                .append_edge_merging(k, t.o, sn, merge_upto);
            receipts.push(AppendReceipt {
                key: k,
                offset: off,
            });
        }
    }

    /// Injects a whole batch under snapshot `sn`, returning its receipts.
    ///
    /// Holds the shard's batch lock for the duration, which is what makes
    /// every batch's per-key appends contiguous.
    pub fn inject_batch(&self, triples: &[Triple], sn: SnapshotId) -> Vec<AppendReceipt> {
        self.inject_batch_merging(triples, sn, None)
    }

    /// Like [`PersistentShard::inject_batch`] with injection-time snapshot
    /// consolidation up to `merge_upto`.
    pub fn inject_batch_merging(
        &self,
        triples: &[Triple],
        sn: SnapshotId,
        merge_upto: Option<SnapshotId>,
    ) -> Vec<AppendReceipt> {
        let _guard = self.batch_lock.lock();
        let mut receipts = Vec::with_capacity(triples.len() * 2);
        for &t in triples {
            self.inject_triple_merging(t, sn, merge_upto, &mut receipts);
        }
        receipts
    }

    /// Collects the neighbours of `key` visible at snapshot `sn`.
    pub fn neighbors_at(&self, key: Key, sn: SnapshotId) -> Vec<Vid> {
        self.parts[self.part_of(key)].read().neighbors_at(key, sn)
    }

    /// Visits the neighbours of `key` visible at snapshot `sn`.
    pub fn for_each_neighbor(&self, key: Key, sn: SnapshotId, f: impl FnMut(Vid)) {
        self.parts[self.part_of(key)]
            .read()
            .for_each_neighbor(key, sn, f)
    }

    /// Length of `key`'s neighbour list at snapshot `sn`.
    pub fn len_at(&self, key: Key, sn: SnapshotId) -> usize {
        self.parts[self.part_of(key)].read().len_at(key, sn)
    }

    /// Reads a fat-pointer range of `key`.
    pub fn read_range(&self, key: Key, start: u32, len: u32, out: &mut Vec<Vid>) {
        self.parts[self.part_of(key)]
            .read()
            .read_range(key, start, len, out)
    }

    /// Visits the neighbours `key`'s stream-index postings designate,
    /// resolving the key under one partition lock (see
    /// [`BaseStore::read_postings`]).
    pub fn read_postings(&self, key: Key, postings: &[Posting], f: impl FnMut(Timestamp, &[Vid])) {
        if !postings.is_empty() {
            self.parts[self.part_of(key)]
                .read()
                .read_postings(key, postings, f)
        }
    }

    /// Whether `(s, p, o)` is visible at snapshot `sn`.
    pub fn exists_at(&self, s: Vid, p: Pid, o: Vid, sn: SnapshotId) -> bool {
        let out_key = Key::new(s, p, Dir::Out);
        // Both keys may live in different partitions; take each read lock
        // in turn (queries never hold two partition locks at once).
        let out_len = self.len_at(out_key, sn);
        let in_key = Key::new(o, p, Dir::In);
        let in_len = self.len_at(in_key, sn);
        let (key, needle) = if out_len <= in_len {
            (out_key, o)
        } else {
            (in_key, s)
        };
        let mut found = false;
        self.for_each_neighbor(key, sn, |v| found |= v == needle);
        found
    }

    /// Consolidates snapshot intervals ≤ `upto` in every partition.
    pub fn consolidate(&self, upto: SnapshotId) {
        for p in &self.parts {
            p.write().consolidate(upto);
        }
    }

    /// Largest number of retained snapshot intervals across partitions.
    pub fn max_retained_snapshots(&self) -> usize {
        self.parts
            .iter()
            .map(|p| p.read().max_retained_snapshots())
            .max()
            .unwrap_or(0)
    }

    /// Total triples inserted into this shard.
    pub fn triple_count(&self) -> u64 {
        self.parts.iter().map(|p| p.read().triple_count()).sum()
    }

    /// Approximate heap bytes of the shard.
    pub fn heap_bytes(&self) -> usize {
        self.parts.iter().map(|p| p.read().heap_bytes()).sum()
    }

    /// Visits every key in the shard (statistics, checkpointing).
    pub fn for_each_key(&self, mut f: impl FnMut(Key, usize)) {
        for p in &self.parts {
            p.read().for_each_key(|k, c| f(k, c.total_len()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64, p: u64, o: u64) -> Triple {
        Triple::new(Vid(s), Pid(p), Vid(o))
    }

    #[test]
    fn shard_mirrors_base_store_semantics() {
        let shard = PersistentShard::new(8);
        shard.load_base(t(1, 4, 5));
        shard.load_base(t(1, 4, 6));
        let sn = SnapshotId::BASE;
        assert_eq!(
            shard.neighbors_at(Key::new(Vid(1), Pid(4), Dir::Out), sn),
            vec![Vid(5), Vid(6)]
        );
        assert_eq!(
            shard.neighbors_at(Key::index(Pid(4), Dir::In), sn),
            vec![Vid(5), Vid(6)]
        );
        assert!(shard.exists_at(Vid(1), Pid(4), Vid(5), sn));
        assert_eq!(shard.triple_count(), 2);
    }

    #[test]
    fn batch_receipts_are_contiguous_per_key() {
        let shard = PersistentShard::new(4);
        let batch: Vec<Triple> = (0..10).map(|i| t(i + 1, 3, 99)).collect();
        let receipts = shard.inject_batch(&batch, SnapshotId(1));
        // All ten appends to [99|3|in] must form offsets 0..10.
        let key = Key::new(Vid(99), Pid(3), Dir::In);
        let mut offs: Vec<u32> = receipts
            .iter()
            .filter(|r| r.key == key)
            .map(|r| r.offset)
            .collect();
        offs.sort_unstable();
        assert_eq!(offs, (0..10).collect::<Vec<u32>>());
    }

    #[test]
    fn concurrent_injection_keeps_index_duplicate_free() {
        use std::sync::Arc;
        let shard = Arc::new(PersistentShard::new(8));
        // 4 threads × 100 triples, all sharing predicate 7 and object 500.
        let handles: Vec<_> = (0..4)
            .map(|th| {
                let shard = Arc::clone(&shard);
                std::thread::spawn(move || {
                    let mut rc = Vec::new();
                    for i in 0..100u64 {
                        shard.inject_triple(t(th * 100 + i + 1, 7, 500), SnapshotId(1), &mut rc);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Object 500 gained 400 in-edges but appears once in the in-index.
        let sn = SnapshotId(1);
        assert_eq!(shard.len_at(Key::new(Vid(500), Pid(7), Dir::In), sn), 400);
        let idx = shard.neighbors_at(Key::index(Pid(7), Dir::In), sn);
        assert_eq!(idx.iter().filter(|&&v| v == Vid(500)).count(), 1);
        // Each distinct subject appears exactly once in the out-index.
        let out_idx = shard.neighbors_at(Key::index(Pid(7), Dir::Out), sn);
        assert_eq!(out_idx.len(), 400);
        let mut sorted = out_idx.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 400);
    }

    #[test]
    fn disjoint_owner_filtered_appends_match_serial() {
        use crate::sharding::ShardMap;
        use std::sync::Arc;
        // The parallel-ingest contract: worker tasks apply owner-disjoint
        // key sets through `append_owned(&self)` concurrently, and every
        // key's list comes out exactly as a serial application — each key
        // is written by one task only, in that task's order.
        let triples: Vec<Triple> = (0..200u64)
            .map(|i| t(i % 50 + 1, i % 5 + 1, i + 2))
            .collect();
        let serial = PersistentShard::new(8);
        for &tr in &triples {
            serial.append_owned(tr.out_key(), tr.o, SnapshotId(1), None);
            serial.append_owned(tr.in_key(), tr.s, SnapshotId(1), None);
        }
        let shard = Arc::new(PersistentShard::new(8));
        let handles: Vec<_> = (0..4u16)
            .map(|n| {
                let shard = Arc::clone(&shard);
                let triples = triples.clone();
                std::thread::spawn(move || {
                    let map = ShardMap::new(4);
                    let owns = map.owner_filter(n);
                    for tr in triples {
                        if owns(tr.out_key()) {
                            shard.append_owned(tr.out_key(), tr.o, SnapshotId(1), None);
                        }
                        if owns(tr.in_key()) {
                            shard.append_owned(tr.in_key(), tr.s, SnapshotId(1), None);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for &tr in &triples {
            for key in [tr.out_key(), tr.in_key()] {
                assert_eq!(
                    shard.neighbors_at(key, SnapshotId(1)),
                    serial.neighbors_at(key, SnapshotId(1)),
                    "{key:?}"
                );
            }
        }
    }

    #[test]
    fn consolidation_bounds_snapshots() {
        let shard = PersistentShard::new(2);
        for sn in 1..=5u64 {
            shard.inject_batch(&[t(1, 2, 100 + sn)], SnapshotId(sn));
        }
        assert!(shard.max_retained_snapshots() >= 5);
        shard.consolidate(SnapshotId(4));
        assert_eq!(shard.max_retained_snapshots(), 1);
        // Visibility of the still-gated snapshot is preserved.
        let key = Key::new(Vid(1), Pid(2), Dir::Out);
        assert_eq!(shard.len_at(key, SnapshotId(4)), 4);
        assert_eq!(shard.len_at(key, SnapshotId(5)), 5);
    }

    #[test]
    #[should_panic(expected = "at least one partition")]
    fn zero_partitions_rejected() {
        let _ = PersistentShard::new(0);
    }
}
