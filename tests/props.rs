//! Property-based tests over the core data structures and invariants.

use proptest::prelude::*;
use wukong_core::checkpoint::{Checkpoint, LoggedBatch, LoggedQuery};
use wukong_rdf::{Dir, Key, Pid, StreamTuple, Triple, Vid};
use wukong_store::base::AppendReceipt;
use wukong_store::{
    BaseStore, FatPointer, IndexBatch, SnapshotId, StreamIndex, TransientSlice, TransientStore,
};
use wukong_stream::{SnVtsPlanner, StalenessBound, Vts};

fn arb_triple() -> impl Strategy<Value = Triple> {
    (1..200u64, 1..8u64, 1..200u64).prop_map(|(s, p, o)| Triple::new(Vid(s), Pid(p), Vid(o)))
}

/// The committed regression file must be found from the integration-test
/// context (cwd is the package root, `file!()` is workspace-relative) and
/// parse to at least the replay smoke seed — otherwise persisted failure
/// seeds would silently stop replaying.
#[test]
fn regression_file_resolves_and_parses() {
    let path = proptest::regressions_path(file!(), env!("CARGO_MANIFEST_DIR"))
        .expect("tests/props.proptest-regressions must be discoverable");
    let seeds = proptest::parse_regressions(&std::fs::read_to_string(path).unwrap());
    assert!(!seeds.is_empty(), "smoke seed must parse");
}

/// 36 keys: vertices 0 (the index vertex) to 5, predicates 1 to 3, both
/// directions — few enough that batches keep touching the same keys.
fn small_key(i: u8) -> Key {
    let i = u64::from(i % 36);
    let dir = if i % 2 == 0 { Dir::In } else { Dir::Out };
    Key::new(Vid(i / 6), Pid(i / 2 % 3 + 1), dir)
}

/// The stream index as it was first written: a time-ordered list of
/// batches, each a coalesced key → pointer table, scanned batch by batch.
#[derive(Default)]
struct NaiveIndex {
    batches: Vec<(u64, Vec<(Key, FatPointer)>)>,
    retired: u64,
}

impl NaiveIndex {
    fn insert(&mut self, ts: u64, receipts: &[AppendReceipt]) {
        let mut entries: Vec<(Key, FatPointer)> = Vec::new();
        for r in receipts {
            match entries.iter_mut().find(|(k, _)| *k == r.key) {
                Some((_, fp)) => {
                    fp.start = fp.start.min(r.offset);
                    fp.len += 1;
                }
                None => entries.push((
                    r.key,
                    FatPointer {
                        start: r.offset,
                        len: 1,
                    },
                )),
            }
        }
        let at = self.batches.partition_point(|(t, _)| *t <= ts);
        self.batches.insert(at, (ts, entries));
    }

    fn retire(&mut self, expiry: u64) -> usize {
        let n = self.batches.partition_point(|(t, _)| *t < expiry);
        self.batches.drain(..n);
        self.retired += n as u64;
        n
    }

    fn in_window(&self, lo: u64, hi: u64) -> impl Iterator<Item = &(u64, Vec<(Key, FatPointer)>)> {
        self.batches
            .iter()
            .filter(move |(t, _)| lo <= *t && *t <= hi)
    }

    fn pointers(&self, key: Key, lo: u64, hi: u64) -> Vec<(u64, FatPointer)> {
        self.in_window(lo, hi)
            .flat_map(|(t, e)| e.iter().filter(|(k, _)| *k == key).map(|(_, fp)| (*t, *fp)))
            .collect()
    }

    fn vertices(&self, pid: Pid, dir: Dir, lo: u64, hi: u64) -> Vec<Vid> {
        let mut v: Vec<Vid> = self
            .in_window(lo, hi)
            .flat_map(|(_, e)| e.iter().map(|(k, _)| *k))
            .filter(|k| !k.is_index() && k.pid() == pid && k.dir() == dir)
            .map(|k| k.vid())
            .collect();
        v.sort();
        v
    }
}

proptest! {
    /// Key packing is a bijection over its domain.
    #[test]
    fn key_roundtrip(vid in 0..=wukong_rdf::MAX_VID, pid in 0..=wukong_rdf::MAX_PID, dir in 0..2u8) {
        let d = if dir == 0 { Dir::In } else { Dir::Out };
        let k = Key::new(Vid(vid), Pid(pid), d);
        prop_assert_eq!(k.vid(), Vid(vid));
        prop_assert_eq!(k.pid(), Pid(pid));
        prop_assert_eq!(k.dir(), d);
        prop_assert_eq!(Key::from_raw(k.raw()), k);
    }

    /// Out-edges and in-edges always mirror each other, and index
    /// vertices stay duplicate-free, for any insertion sequence.
    #[test]
    fn store_out_in_symmetry(triples in proptest::collection::vec(arb_triple(), 1..200)) {
        let mut st = BaseStore::new();
        for &t in &triples {
            st.insert_base(t);
        }
        let sn = SnapshotId::BASE;
        for &t in &triples {
            // Every (s,p,o) insertion is visible from both sides with the
            // same multiplicity.
            let outs = st.neighbors_at(t.out_key(), sn);
            let ins = st.neighbors_at(t.in_key(), sn);
            let m_out = outs.iter().filter(|&&v| v == t.o).count();
            let m_in = ins.iter().filter(|&&v| v == t.s).count();
            prop_assert_eq!(m_out, m_in);
            prop_assert!(m_out >= 1);
            // The index vertices mention both endpoints exactly once.
            let idx_out = st.neighbors_at(Key::index(t.p, Dir::Out), sn);
            prop_assert_eq!(idx_out.iter().filter(|&&v| v == t.s).count(), 1);
            let idx_in = st.neighbors_at(Key::index(t.p, Dir::In), sn);
            prop_assert_eq!(idx_in.iter().filter(|&&v| v == t.o).count(), 1);
        }
    }

    /// Snapshot visibility is monotone and consolidation changes neither
    /// visibility at live snapshots nor logical offsets.
    #[test]
    fn snapshot_monotonicity_and_consolidation(
        batches in proptest::collection::vec(proptest::collection::vec(arb_triple(), 1..20), 1..8),
        consolidate_upto in 0..8u64,
    ) {
        let mut st = BaseStore::new();
        let mut rc = Vec::new();
        for (i, batch) in batches.iter().enumerate() {
            for &t in batch {
                st.insert_at(t, SnapshotId(i as u64 + 1), &mut rc);
            }
        }
        let last = SnapshotId(batches.len() as u64);
        // Record visibility at the final snapshot, per key length.
        let key = batches[0][0].out_key();
        let full_before = st.neighbors_at(key, last);
        let mut lens = Vec::new();
        for snv in 0..=batches.len() as u64 {
            lens.push(st.len_at(key, SnapshotId(snv)));
        }
        // Monotone in the snapshot number.
        for w in lens.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
        st.consolidate(SnapshotId(consolidate_upto));
        // Everything at or above the consolidation point is unchanged.
        prop_assert_eq!(st.neighbors_at(key, last), full_before);
        for snv in consolidate_upto..=batches.len() as u64 {
            prop_assert_eq!(st.len_at(key, SnapshotId(snv)), lens[snv as usize]);
        }
    }

    /// Reading any fat-pointer range equals the matching slice of the
    /// full logical value, before and after consolidation.
    #[test]
    fn read_range_matches_logical_slice(
        n in 1..100u32,
        start in 0..100u32,
        len in 0..100u32,
        upto in 0..5u64,
    ) {
        let mut st = BaseStore::new();
        let mut rc = Vec::new();
        for i in 0..n {
            // Snapshots must be non-decreasing per key (the injector's
            // ordering guarantee).
            st.insert_at(
                Triple::new(Vid(1), Pid(2), Vid(i as u64 + 10)),
                SnapshotId((i as u64) / 20),
                &mut rc,
            );
        }
        let key = Key::new(Vid(1), Pid(2), Dir::Out);
        let full = st.neighbors_at(key, SnapshotId(5));
        let expect: Vec<Vid> = full
            .iter()
            .copied()
            .skip(start as usize)
            .take(len as usize)
            .collect();
        let mut got = Vec::new();
        st.read_range(key, start, len, &mut got);
        prop_assert_eq!(&got, &expect);
        st.consolidate(SnapshotId(upto));
        let mut got2 = Vec::new();
        st.read_range(key, start, len, &mut got2);
        prop_assert_eq!(&got2, &expect);
    }

    /// The stream index finds exactly the per-window appends that a naive
    /// timestamp scan finds.
    #[test]
    fn stream_index_agrees_with_timestamp_scan(
        events in proptest::collection::vec((arb_triple(), 1..50u64), 1..100),
        lo in 0..60u64,
        span in 0..30u64,
    ) {
        // Group events into batches by timestamp (sorted).
        let mut events = events;
        events.sort_by_key(|(_, ts)| *ts);
        let mut store = BaseStore::new();
        let mut index = StreamIndex::new();
        let mut log: Vec<(Key, Vid, u64)> = Vec::new();
        let mut i = 0;
        while i < events.len() {
            let ts = events[i].1;
            let mut rc = Vec::new();
            while i < events.len() && events[i].1 == ts {
                let t = events[i].0;
                store.insert_at(t, SnapshotId(1), &mut rc);
                log.push((t.out_key(), t.o, ts));
                log.push((t.in_key(), t.s, ts));
                i += 1;
            }
            index.push_batch(IndexBatch::from_receipts(ts, &rc));
        }
        let hi = lo + span;
        // Check every data key that appears.
        for (key, _, _) in &log {
            let mut got = Vec::new();
            index.neighbors_in(&store, *key, lo, hi, &mut got);
            let mut expect: Vec<Vid> = log
                .iter()
                .filter(|(k, _, ts)| k == key && *ts >= lo && *ts <= hi)
                .map(|(_, v, _)| *v)
                .collect();
            got.sort();
            expect.sort();
            prop_assert_eq!(got, expect);
        }
    }

    /// The key-major stream index answers every window exactly like a
    /// naive per-batch index, under any mix of in-order pushes (through
    /// both install paths, equal timestamps included), out-of-order
    /// catch-up inserts and GC.
    #[test]
    fn key_major_index_matches_per_batch_model(
        ops in proptest::collection::vec(
            (0..4u8, 0..4u64, 0..60u64, proptest::collection::vec(0..36u8, 0..10)),
            1..40,
        ),
        windows in proptest::collection::vec((0..70u64, 0..30u64), 1..6),
    ) {
        let mut index = StreamIndex::new();
        let mut model = NaiveIndex::default();
        let mut next_offset = std::collections::HashMap::<Key, u32>::new();
        let mut newest = 0u64;
        for (kind, step, at, picks) in ops {
            // Receipts of one batch: each pick appends one neighbour to
            // its key, so one key's offsets within a batch are contiguous.
            let receipts: Vec<AppendReceipt> = picks
                .iter()
                .map(|&i| {
                    let key = small_key(i);
                    let off = next_offset.entry(key).or_insert(0);
                    *off += 1;
                    AppendReceipt { key, offset: *off - 1 }
                })
                .collect();
            match kind {
                0 | 1 => {
                    newest += step;
                    model.insert(newest, &receipts);
                    if kind == 0 {
                        index.push_batch(IndexBatch::from_receipts(newest, &receipts));
                    } else {
                        let entries = index.push_receipts(newest, &receipts);
                        prop_assert_eq!(entries, model.batches.last().unwrap().1.len());
                    }
                }
                2 => {
                    let ts = at.min(newest);
                    model.insert(ts, &receipts);
                    index.insert_batch(IndexBatch::from_receipts(ts, &receipts));
                }
                _ => {
                    prop_assert_eq!(index.retire_expired(at), model.retire(at));
                }
            }
            prop_assert_eq!(index.batch_count(), model.batches.len());
            prop_assert_eq!(index.retired(), model.retired);
        }
        for (lo, span) in windows {
            let hi = lo + span;
            for i in 0..36 {
                let key = small_key(i);
                let mut got = Vec::new();
                index.for_each_pointer_timed_in(key, lo, hi, |ts, fp| got.push((ts, fp)));
                let expect = model.pointers(key, lo, hi);
                prop_assert_eq!(index.count_in(key, lo, hi), expect.iter().map(|(_, fp)| fp.len as usize).sum::<usize>());
                prop_assert_eq!(got, expect, "{:?} in [{}, {}]", key, lo, hi);
            }
            for pid in 1..=3 {
                for dir in [Dir::In, Dir::Out] {
                    let mut got = Vec::new();
                    index.vertices_in(Pid(pid), dir, lo, hi, &mut got);
                    got.sort();
                    prop_assert_eq!(got, model.vertices(Pid(pid), dir, lo, hi));
                }
            }
        }
    }

    /// The transient ring returns exactly the in-window timing tuples and
    /// never exceeds its memory budget by more than one slice.
    #[test]
    fn transient_window_and_budget(
        batches in proptest::collection::vec(proptest::collection::vec(arb_triple(), 0..10), 1..20),
        lo in 0..20u64,
        span in 0..10u64,
    ) {
        let mut store = TransientStore::new(1 << 16);
        let mut log: Vec<(Key, Vid, u64)> = Vec::new();
        for (i, batch) in batches.iter().enumerate() {
            let ts = (i as u64 + 1) * 10;
            let tuples: Vec<StreamTuple> = batch
                .iter()
                .map(|&t| StreamTuple::timing(t, ts))
                .collect();
            for t in &tuples {
                log.push((t.triple.out_key(), t.triple.o, ts));
            }
            store.push_batch(TransientSlice::from_batch(ts, &tuples));
        }
        let hi = (lo + span) * 10;
        let lo = lo * 10;
        let evicted = store.evicted_slices();
        for (key, _, _) in &log {
            let mut got = store.neighbors_in(*key, lo, hi);
            let mut expect: Vec<Vid> = log
                .iter()
                .filter(|(k, _, ts)| k == key && *ts >= lo && *ts <= hi
                        // Budget eviction may have dropped old slices.
                        && *ts > evicted * 10)
                .map(|(_, v, _)| *v)
                .collect();
            got.sort();
            expect.sort();
            prop_assert_eq!(got, expect);
        }
    }

    /// Stable VTS is the greatest lower bound of the nodes' local VTS.
    #[test]
    fn stable_vts_is_glb(
        entries in proptest::collection::vec(
            proptest::collection::vec(0..1_000u64, 3),
            1..8,
        )
    ) {
        let vts: Vec<Vts> = entries.iter().map(|e| Vts::from_entries(e.clone())).collect();
        let stable = Vts::stable(vts.iter());
        for v in &vts {
            prop_assert!(v.dominates(&stable));
        }
        for s in 0..3 {
            prop_assert!(vts.iter().any(|v| v.get(s) == stable.get(s)));
        }
    }

    /// Snapshot assignment respects plan order: later batches never get
    /// smaller snapshot numbers.
    #[test]
    fn snapshot_assignment_is_monotone(steps in proptest::collection::vec(0..3usize, 1..40)) {
        let mut planner = SnVtsPlanner::new(vec![10, 10, 10], StalenessBound(1));
        planner.announce_next(&Vts::new(3));
        let mut local = Vts::new(3);
        let mut last_sn = [SnapshotId(0); 3];
        for s in steps {
            let next = local.get(s) + 10;
            if let Some(sn) = planner.snapshot_for(s, next) {
                prop_assert!(sn >= last_sn[s]);
                last_sn[s] = sn;
                local.advance(s, next);
                planner.on_vts_update(std::slice::from_ref(&local));
            }
        }
    }

    /// The adaptor conserves tuples: every relevant tuple lands in
    /// exactly one batch, batches are time-ordered with timestamps at
    /// interval boundaries, and heartbeats lose nothing.
    #[test]
    fn adaptor_conserves_tuples(
        deltas in proptest::collection::vec(0..40u64, 1..120),
        interval in 1..5u64,
    ) {
        use wukong_stream::{Adaptor, StreamSchema};
        let interval = interval * 50;
        let schema = StreamSchema::timeless(wukong_rdf::StreamId(0), "S", interval);
        let mut adaptor = Adaptor::new(schema);
        let mut ts = 0u64;
        let mut batches = Vec::new();
        let mut fed = 0usize;
        for (i, d) in deltas.iter().enumerate() {
            ts += d;
            let t = Triple::new(Vid(i as u64 + 1), Pid(1), Vid(1));
            batches.extend(adaptor.push(t, ts));
            fed += 1;
        }
        batches.extend(adaptor.advance_to(ts + interval));

        let collected: usize = batches.iter().map(|b| b.tuples.len()).sum();
        prop_assert_eq!(collected, fed, "tuples lost or duplicated");
        // Batch timestamps are strictly increasing interval multiples.
        for w in batches.windows(2) {
            prop_assert!(w[0].timestamp < w[1].timestamp);
        }
        for b in &batches {
            prop_assert_eq!(b.timestamp % interval, 0);
            // Every tuple's (clamped) timestamp is within its batch.
            for t in &b.tuples {
                prop_assert!(t.timestamp <= b.timestamp);
            }
        }
    }

    /// The parser never panics: arbitrary input produces Ok or Err.
    #[test]
    fn parser_total_on_arbitrary_input(input in ".{0,200}") {
        let ss = wukong_rdf::StringServer::new();
        let _ = wukong_query::parse_query(&ss, &input);
    }

    /// The parser never panics on query-shaped token soup either.
    #[test]
    fn parser_total_on_query_like_input(
        tokens in proptest::collection::vec(
            prop_oneof![
                Just("SELECT".to_string()),
                Just("WHERE".to_string()),
                Just("FROM".to_string()),
                Just("{".to_string()),
                Just("}".to_string()),
                Just("?x".to_string()),
                Just("?y".to_string()),
                Just("po".to_string()),
                Just("Logan".to_string()),
                Just("OPTIONAL".to_string()),
                Just("UNION".to_string()),
                Just("FILTER".to_string()),
                Just("NOT".to_string()),
                Just("EXISTS".to_string()),
                Just("GROUP".to_string()),
                Just("BY".to_string()),
                Just("ORDER".to_string()),
                Just("LIMIT".to_string()),
                Just("CONSTRUCT".to_string()),
                Just("GRAPH".to_string()),
                Just("[RANGE 1s STEP 1s]".to_string()),
                Just("(".to_string()),
                Just(")".to_string()),
                Just(".".to_string()),
                Just("5".to_string()),
                Just(">".to_string()),
            ],
            0..25,
        )
    ) {
        let ss = wukong_rdf::StringServer::new();
        let _ = wukong_query::parse_query(&ss, &tokens.join(" "));
    }

    /// Checkpoint encode/decode is the identity.
    #[test]
    fn checkpoint_roundtrip(
        vts in proptest::collection::vec(proptest::collection::vec(0..10_000u64, 3), 1..5),
        queries in proptest::collection::vec(
            ("[a-zA-Z ?{}.]{0,60}", proptest::option::of(0..100u16)),
            0..4,
        ),
        batches in proptest::collection::vec((0..5u16, 0..10_000u64, proptest::collection::vec(arb_triple(), 0..10)), 0..10),
    ) {
        let cp = Checkpoint {
            local_vts: vts,
            queries: queries
                .into_iter()
                .map(|(text, construct_target)| LoggedQuery {
                    text,
                    construct_target,
                })
                .collect(),
            batches: batches
                .into_iter()
                .map(|(stream, timestamp, ts)| LoggedBatch {
                    stream,
                    timestamp,
                    tuples: ts.into_iter().map(|t| StreamTuple::timeless(t, timestamp)).collect(),
                })
                .collect(),
        };
        prop_assert_eq!(Checkpoint::decode(&cp.encode()).unwrap(), cp);
    }
}
