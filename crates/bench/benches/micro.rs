//! Criterion micro-benchmarks of the mechanisms behind the evaluation:
//! store injection/lookup, the stream index's window extraction against
//! the Wukong/Ext-style full-value scan, snapshot scalarization, vector
//! timestamps, graph-exploration execution, and fabric cost charging.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use wukong_net::{Fabric, NetworkProfile, NodeId, TaskTimer};
use wukong_query::exec::{ExecContext, GraphAccess, PatternSource};
use wukong_query::{execute, parse_query, plan_query};
use wukong_rdf::{Dir, Key, Pid, StringServer, Triple, Vid};
use wukong_store::{BaseStore, IndexBatch, PersistentShard, SnapshotId, StreamIndex};
use wukong_stream::{SnVtsPlanner, StalenessBound, Vts};

fn bench_store(c: &mut Criterion) {
    let mut g = c.benchmark_group("store");

    g.bench_function("insert_base_triple", |b| {
        let mut st = BaseStore::new();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            st.insert_base(Triple::new(Vid(i % 10_000 + 1), Pid(3), Vid(i + 20_000)));
        });
    });

    g.bench_function("inject_batch_100", |b| {
        let shard = PersistentShard::new(8);
        let mut sn = 1u64;
        b.iter(|| {
            let triples: Vec<Triple> = (0..100)
                .map(|i| Triple::new(Vid(sn * 100 + i + 1), Pid(3), Vid(900_000 + i)))
                .collect();
            let r = shard.inject_batch(&triples, SnapshotId(sn));
            sn += 1;
            black_box(r.len())
        });
    });

    let mut st = BaseStore::new();
    for i in 0..1_000 {
        st.insert_base(Triple::new(Vid(1), Pid(3), Vid(i + 10)));
    }
    g.bench_function("lookup_1k_neighbors", |b| {
        b.iter(|| black_box(st.neighbors_at(Key::new(Vid(1), Pid(3), Dir::Out), SnapshotId::BASE)))
    });
    g.finish();
}

/// The Table 4 mechanism: stream-index window extraction is O(window),
/// the Wukong/Ext-style timestamp scan is O(history).
fn bench_stream_index(c: &mut Criterion) {
    let mut g = c.benchmark_group("window_extraction");
    for history_batches in [100u64, 1_000, 10_000] {
        // One key accumulating 4 neighbours per batch.
        let mut store = BaseStore::new();
        let mut index = StreamIndex::new();
        let mut log: Vec<(Vid, u64)> = Vec::new();
        let key = Key::new(Vid(1), Pid(3), Dir::Out);
        for batch in 0..history_batches {
            let mut rc = Vec::new();
            for i in 0..4u64 {
                let v = Vid(batch * 4 + i + 10);
                store.insert_at(Triple::new(Vid(1), Pid(3), v), SnapshotId(1), &mut rc);
                log.push((v, batch * 100));
            }
            index.push_batch(IndexBatch::from_receipts(
                batch * 100,
                &rc.iter()
                    .filter(|r| r.key == key)
                    .copied()
                    .collect::<Vec<_>>(),
            ));
        }
        let hi = history_batches * 100;
        let lo = hi - 1_000; // a 10-batch window at the end

        g.bench_with_input(
            BenchmarkId::new("stream_index", history_batches),
            &history_batches,
            |b, _| {
                b.iter(|| {
                    let mut out = Vec::new();
                    index.neighbors_in(&store, key, lo, hi, &mut out);
                    black_box(out.len())
                })
            },
        );
        // The same key over a 100-batch window: the key-major index probes
        // once and binary-searches, so the lookup cost beyond copying the
        // window's neighbours stays flat as the window grows.
        let lo100 = hi - 10_000;
        g.bench_with_input(
            BenchmarkId::new("stream_index_window100", history_batches),
            &history_batches,
            |b, _| {
                b.iter(|| {
                    let mut out = Vec::new();
                    index.neighbors_in(&store, key, lo100, hi, &mut out);
                    black_box(out.len())
                })
            },
        );
        g.bench_with_input(
            BenchmarkId::new("ext_full_scan", history_batches),
            &history_batches,
            |b, _| {
                b.iter(|| {
                    let n = log.iter().filter(|(_, ts)| *ts >= lo && *ts <= hi).count();
                    black_box(n)
                })
            },
        );
    }
    g.finish();
}

fn bench_consistency(c: &mut Criterion) {
    let mut g = c.benchmark_group("consistency");

    g.bench_function("stable_vts_8_nodes_5_streams", |b| {
        let vts: Vec<Vts> = (0..8)
            .map(|n| Vts::from_entries((0..5).map(|s| 1_000 + n * 7 + s).collect()))
            .collect();
        b.iter(|| black_box(Vts::stable(vts.iter())))
    });

    g.bench_function("sn_vts_plan_round", |b| {
        b.iter(|| {
            let mut p = SnVtsPlanner::new(vec![100; 5], StalenessBound(1));
            p.announce_next(&Vts::new(5));
            let reached = vec![Vts::from_entries(vec![100; 5]); 8];
            black_box(p.on_vts_update(&reached))
        })
    });
    g.finish();
}

struct LocalAccess<'a>(&'a BaseStore);

impl GraphAccess for LocalAccess<'_> {
    fn neighbors(
        &self,
        key: Key,
        _src: PatternSource,
        ctx: &ExecContext,
        _timer: &mut TaskTimer,
        out: &mut Vec<Vid>,
    ) {
        self.0.for_each_neighbor(key, ctx.sn, |v| out.push(v));
    }

    fn estimate(&self, key: Key, _src: PatternSource, ctx: &ExecContext) -> usize {
        self.0.len_at(key, ctx.sn)
    }
}

fn bench_executor(c: &mut Criterion) {
    // The Fig. 2 one-shot query over a synthetic X-Lab-style graph.
    let ss = StringServer::new();
    let mut st = BaseStore::new();
    let po = ss.intern_predicate("po").unwrap();
    let ht = ss.intern_predicate("ht").unwrap();
    let li = ss.intern_predicate("li").unwrap();
    let logan = ss.intern_entity("Logan").unwrap();
    let erik = ss.intern_entity("Erik").unwrap();
    let tag = ss.intern_entity("#sosp17").unwrap();
    for i in 0..1_000u64 {
        let t = ss.intern_entity(&format!("T-{i}")).unwrap();
        st.insert_base(Triple::new(logan, po, t));
        if i % 3 == 0 {
            st.insert_base(Triple::new(t, ht, tag));
        }
        if i % 5 == 0 {
            st.insert_base(Triple::new(erik, li, t));
        }
    }
    let q = parse_query(
        &ss,
        "SELECT ?X WHERE { Logan po ?X . ?X ht #sosp17 . Erik li ?X }",
    )
    .unwrap();
    let access = LocalAccess(&st);
    let ctx = ExecContext::stored(SnapshotId::BASE);
    let plan = plan_query(&q, &access, &ctx);

    c.bench_function("executor_fig2_oneshot_1k_posts", |b| {
        b.iter(|| {
            let mut timer = TaskTimer::start();
            black_box(execute(
                &q,
                &plan,
                &ctx,
                &access,
                &wukong_query::exec::NoLiterals,
                &mut timer,
            ))
        })
    });
}

fn bench_fabric(c: &mut Criterion) {
    let mut g = c.benchmark_group("fabric");
    let rdma = Fabric::new(8, NetworkProfile::rdma());
    g.bench_function("charge_read", |b| {
        b.iter(|| {
            let mut t = TaskTimer::start();
            black_box(rdma.charge_read(NodeId(0), NodeId(1), 64, &mut t))
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_store,
    bench_stream_index,
    bench_consistency,
    bench_executor,
    bench_fabric
);
criterion_main!(benches);
