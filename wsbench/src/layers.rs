//! The traced run's per-layer metrics.
//!
//! Every number here is taken from outside a layer: the benchmark wraps
//! its own calls into each layer's public functions in spans (see
//! [`crate::spans`]), re-feeding the workload's own tuples and queries,
//! or diffs the engine's counter snapshots around the open-loop phase.

use crate::driver::{Call, Deployment, Trace};
use crate::stats::{geomean, median, percentile};
use crate::workload::{Spec, SplitMix, BATCH_MS};
use crate::{Args, Report};
use std::sync::Arc;
use std::time::Instant;
use wukong_net::{MetricsSnapshot, NodeId, TaskTimer, WorkerPool};
use wukong_obs::{BatchId, FiringId, Marker, PlanSnapshot, PoolSnapshot, Stage, TraceRecorder};
use wukong_rdf::{Dir, Key, Triple};
use wukong_store::{IndexBatch, PersistentShard, SnapshotId, StreamIndex};
use wukong_stream::{dispatch, Adaptor};

/// Stream time re-fed through the standalone stream and store layers, ms.
const LAYER_FEED_MS: u64 = 2_000;
/// Neighbour probes per `Cluster` read path.
const NEIGHBOR_PROBES: usize = 4_000;
/// Regions timed on a standalone 2-lane `WorkerPool`.
const POOL_REGIONS: usize = 200;
/// Recorder events timed from outside.
const RECORDER_SPANS: usize = 50_000;

/// Engine counter snapshots at a phase boundary.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    fabric: MetricsSnapshot,
    pool: PoolSnapshot,
    plan: PlanSnapshot,
    events: u64,
}

impl Counters {
    /// Snapshots the deployment's fabric, pool, plan and recorder
    /// counters.
    pub fn take(dep: &Deployment) -> Counters {
        let h = dep.engine.handle();
        Counters {
            fabric: h.fabric_metrics(),
            pool: h.obs().pool().snapshot(),
            plan: h.obs().plan().snapshot(),
            events: h.trace().snapshot().events,
        }
    }
}

/// Inputs of the per-layer report.
pub struct Layers<'a> {
    /// The measured deployment.
    pub dep: &'a Deployment,
    /// Its workload.
    pub spec: &'a Spec,
    /// The run's seed.
    pub seed: u64,
    /// Counters between the replay and open-loop phases.
    pub mid: Counters,
    /// Counters after the open-loop phase.
    pub after: Counters,
}

fn ns(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

impl Layers<'_> {
    /// Measures the standalone layers and fills the per-layer metrics.
    pub fn report(
        &self,
        t: &mut Trace,
        rep: &mut Report,
        traced_tps: f64,
        untraced_tps: f64,
    ) -> Result<(), String> {
        self.stream_and_store(t, rep)?;
        self.state(rep)?;
        self.core(t, rep)?;
        self.cluster_reads(t, rep)?;
        self.query(t, rep)?;
        self.net(t, rep)?;
        self.obs(t, rep)?;
        let overhead = (untraced_tps / traced_tps - 1.0) * 100.0;
        rep.put("bench.trace.replay_overhead_pct", overhead, "%")?;
        rep.notes.push(format!(
            "traced replay {traced_tps:.0} tuples/s vs untraced {untraced_tps:.0} tuples/s"
        ));
        for (name, (n, total, own)) in t.spans.totals() {
            rep.notes.push(format!(
                "span {name}: n={n} total_ms={:.3} self_ms={:.3}",
                total as f64 / 1e6,
                own as f64 / 1e6
            ));
        }
        Ok(())
    }

    /// Re-feeds `LAYER_FEED_MS` of the open-loop stream through fresh
    /// adaptors, `dispatch` over the live shard map, fresh shards'
    /// `inject_batch`, and `IndexBatch::from_receipts` plus
    /// `StreamIndex::push_batch`.
    fn stream_and_store(&self, t: &mut Trace, rep: &mut Report) -> Result<(), String> {
        let inputs = &self.dep.inputs;
        let cluster = self.dep.engine.cluster();
        let map = cluster.shard_map();
        let nodes = cluster.nodes();
        let from = self.spec.replay_ms;
        let to = from + LAYER_FEED_MS;
        let mut adaptors: Vec<Adaptor> = inputs
            .schemas
            .iter()
            .map(|s| {
                let mut a = Adaptor::new(s.clone());
                a.fast_forward(from);
                a
            })
            .collect();
        let shards: Vec<PersistentShard> = (0..nodes)
            .map(|_| PersistentShard::new(self.dep.engine.config().partitions_per_shard))
            .collect();
        let mut index = StreamIndex::new();
        let (mut adapt_ns, mut tuples) = (0.0, 0u64);
        let (mut dispatch_ns, mut batches, mut skew_sum, mut skewed) = (0.0, 0u64, 0.0, 0u64);
        let (mut inject_ns, mut injected) = (0.0, 0u64);
        let mut index_ns = 0.0;
        let mut sn = 1u64;
        let feed = inputs
            .timeline
            .iter()
            .filter(|x| x.timestamp > from && x.timestamp <= to);
        let mut sealed = Vec::new();
        let mut pending = feed.peekable();
        let mut boundary = from + BATCH_MS;
        while boundary <= to {
            let s = t.spans.enter("stream.adaptor", boundary);
            let t0 = Instant::now();
            while let Some(x) = pending.next_if(|x| x.timestamp <= boundary) {
                sealed.extend(adaptors[x.stream.0 as usize].push(x.triple, x.timestamp));
                tuples += 1;
            }
            for a in &mut adaptors {
                sealed.extend(a.advance_to(boundary));
            }
            adapt_ns += ns(t0);
            t.spans.exit(s);
            for batch in sealed.drain(..) {
                let id = BatchId::mint(batch.stream.0, batch.timestamp).raw();
                let s = t.spans.enter("stream.dispatch", id);
                let t0 = Instant::now();
                let subs = dispatch(&batch, map);
                dispatch_ns += ns(t0);
                t.spans.exit(s);
                batches += 1;
                let lens: Vec<usize> = subs.iter().map(|s| s.tuples.len()).collect();
                let total: usize = lens.iter().sum();
                if total > 0 {
                    let mean = total as f64 / nodes as f64;
                    skew_sum += *lens.iter().max().expect("one sub-batch per node") as f64 / mean;
                    skewed += 1;
                }
                let timing = &inputs.schemas[batch.stream.0 as usize].timing_predicates;
                for sub in &subs {
                    let triples: Vec<Triple> = sub
                        .tuples
                        .iter()
                        .filter(|x| !timing.contains(&x.triple.p))
                        .map(|x| x.triple)
                        .collect();
                    if triples.is_empty() {
                        continue;
                    }
                    let s = t.spans.enter("store.inject", id);
                    let t0 = Instant::now();
                    let receipts = shards[sub.node as usize].inject_batch(&triples, SnapshotId(sn));
                    inject_ns += ns(t0);
                    t.spans.exit(s);
                    injected += triples.len() as u64;
                    let s = t.spans.enter("store.index", id);
                    let t0 = Instant::now();
                    index.push_batch(IndexBatch::from_receipts(batch.timestamp, &receipts));
                    index_ns += ns(t0);
                    t.spans.exit(s);
                }
                sn += 1;
            }
            boundary += BATCH_MS;
        }
        rep.put(
            "stream.adaptor.ns_per_tuple",
            adapt_ns / tuples.max(1) as f64,
            "ns",
        )?;
        rep.put(
            "stream.dispatch.ns_per_batch",
            dispatch_ns / batches.max(1) as f64,
            "ns",
        )?;
        rep.put(
            "stream.dispatch.skew",
            skew_sum / skewed.max(1) as f64,
            "ratio",
        )?;
        rep.put(
            "store.inject.ns_per_triple",
            inject_ns / injected.max(1) as f64,
            "ns",
        )?;
        rep.put(
            "store.index.ns_per_batch",
            index_ns / batches.max(1) as f64,
            "ns",
        )?;
        Ok(())
    }

    /// State size from `WukongS::stats()` at the end of the run.
    fn state(&self, rep: &mut Report) -> Result<(), String> {
        let s = self.dep.engine.stats();
        rep.put("store.stored_triples", s.stored_triples as f64, "count")?;
        rep.put("store.store_bytes", s.store_bytes as f64, "bytes")?;
        rep.put(
            "store.stream_index_bytes",
            s.stream_index_bytes as f64,
            "bytes",
        )?;
        rep.put("store.transient_bytes", s.transient_bytes as f64, "bytes")?;
        Ok(())
    }

    /// Busy time, calls and p95 of each engine entry point, and the
    /// per-firing bookkeeping left in `fire_ready` once the query
    /// executor's share is taken out.
    fn core(&self, t: &Trace, rep: &mut Report) -> Result<(), String> {
        for c in Call::ALL {
            let ns = t.calls.get(&c).map(Vec::as_slice).unwrap_or(&[]);
            let us: Vec<f64> = ns.iter().map(|n| *n as f64 / 1e3).collect();
            let name = c.name();
            rep.put(
                format!("core.{name}.busy_ms"),
                us.iter().sum::<f64>() / 1e3,
                "ms",
            )?;
            rep.put(format!("core.{name}.calls"), us.len() as f64, "count")?;
            let p95 = percentile(&us, 95.0).map_err(|e| format!("core.{name}.p95_us: {e}"))?;
            rep.put(format!("core.{name}.p95_us"), p95, "us")?;
        }
        let fire_us: f64 = t
            .calls
            .get(&Call::FireReady)
            .map_or(0.0, |v| v.iter().sum::<u64>() as f64 / 1e3);
        let exec_us: f64 = t.query.values().flat_map(|q| &q.execute_us).sum();
        let per = (fire_us - exec_us) / t.firings.max(1) as f64;
        rep.put("core.fire_ready.us_per_firing", per, "us")?;
        Ok(())
    }

    /// `Cluster::stored_neighbors` and `Cluster::stream_neighbors` timed
    /// on seeded user keys at the end of the run.
    fn cluster_reads(&self, t: &mut Trace, rep: &mut Report) -> Result<(), String> {
        let e = &self.dep.engine;
        let c = e.cluster();
        let ss = e.strings();
        let pid = |p: &str| ss.predicate_id(p).expect("LSBench predicate");
        let (fo, po) = (pid("fo"), pid("po"));
        let users = self.spec.ls.users as u64;
        let mut rng = SplitMix(self.seed ^ 0xC1_0575);
        let keys: Vec<_> = (0..NEIGHBOR_PROBES)
            .map(|_| {
                let u = ss
                    .entity_id(&format!("u{}", rng.below(users)))
                    .expect("generated user");
                (Key::new(u, fo, Dir::Out), Key::new(u, po, Dir::Out))
            })
            .collect();
        let sn = e.stable_sn();
        let po_stream = self.dep.streams[wukong_benchdata::lsbench::PO];
        let hi = e.stable_ts(po_stream);
        let lo = hi.saturating_sub(1_000) + 1;
        let mut out = Vec::new();
        let mut timer = TaskTimer::start();
        let s = t.spans.enter("cluster.stored_neighbors", sn.0);
        let t0 = Instant::now();
        for (k, _) in &keys {
            out.clear();
            c.stored_neighbors(NodeId(0), *k, sn, &mut timer, &mut out);
        }
        let stored = ns(t0) / keys.len() as f64;
        t.spans.exit(s);
        let s = t.spans.enter("cluster.stream_neighbors", hi);
        let t0 = Instant::now();
        for (_, k) in &keys {
            out.clear();
            c.stream_neighbors(
                NodeId(0),
                po_stream.0 as usize,
                *k,
                lo,
                hi,
                &mut timer,
                &mut out,
            );
        }
        let stream = ns(t0) / keys.len() as f64;
        t.spans.exit(s);
        rep.put("core.cluster.stored_neighbors_ns", stored, "ns")?;
        rep.put("core.cluster.stream_neighbors_ns", stream, "ns")?;
        Ok(())
    }

    /// The query layer: geo-means over the workload's standing classes of
    /// the per-class median parse, plan and execute time of the re-runs,
    /// plus row and plan counters.
    fn query(&self, t: &Trace, rep: &mut Report) -> Result<(), String> {
        let gm = |f: &dyn Fn(&crate::driver::QueryLayer) -> &Vec<f64>| {
            let meds: Vec<f64> = t.query.values().filter_map(|q| median(f(q))).collect();
            geomean(&meds).ok_or("no firing was re-run through the query layer")
        };
        rep.put("query.parse.us", gm(&|q| &q.parse_us)?, "us")?;
        rep.put("query.plan.us", gm(&|q| &q.plan_us)?, "us")?;
        rep.put("query.execute.us", gm(&|q| &q.execute_us)?, "us")?;
        rep.put(
            "query.rows",
            t.query.values().map(|q| q.rows).sum::<u64>() as f64,
            "count",
        )?;
        let plan = self.mid.plan.delta(&self.after.plan);
        rep.put(
            "query.edges_traversed",
            plan.edges_traversed as f64,
            "count",
        )?;
        rep.put("query.plan_cache_hits", plan.cache_hits as f64, "count")?;
        rep.put("query.plan_cache_misses", plan.cache_misses as f64, "count")?;
        for (class, q) in &t.query {
            rep.notes.push(format!(
                "query {class}: reruns={} parse_us={:.2} plan_us={:.2} execute_us={:.2} rows={}",
                q.execute_us.len(),
                median(&q.parse_us).unwrap_or(0.0),
                median(&q.plan_us).unwrap_or(0.0),
                median(&q.execute_us).unwrap_or(0.0),
                q.rows
            ));
        }
        Ok(())
    }

    /// Fabric and pool counters over the open loop, and a standalone
    /// 2-lane `WorkerPool::map` region timed from outside.
    fn net(&self, t: &mut Trace, rep: &mut Report) -> Result<(), String> {
        let f = self.mid.fabric.delta(&self.after.fabric);
        rep.put(
            "net.fabric.one_sided_reads",
            f.one_sided_reads as f64,
            "count",
        )?;
        rep.put("net.fabric.messages", f.messages as f64, "count")?;
        rep.put("net.fabric.bytes_read", f.bytes_read as f64, "bytes")?;
        rep.put("net.fabric.bytes_sent", f.bytes_sent as f64, "bytes")?;
        rep.put(
            "net.fabric.charged_ms",
            f.charged_ns as f64 / 1e6,
            "model-ms",
        )?;
        let p = self.mid.pool.delta(&self.after.pool);
        rep.put("net.pool.tasks", p.tasks as f64, "count")?;
        rep.put("net.pool.regions", p.regions as f64, "count")?;
        let pool = WorkerPool::new(2, Arc::new(wukong_obs::PoolCounters::default()));
        let mut region_us = Vec::with_capacity(POOL_REGIONS);
        for r in 0..POOL_REGIONS {
            let items: Vec<u64> = (0..8).map(|i| i + r as u64).collect();
            let s = t.spans.enter("pool.map", r as u64);
            let t0 = Instant::now();
            let out = pool.map(items, |_, x| {
                (0..2_000u64).fold(x, |a, b| a.wrapping_mul(31) ^ b)
            });
            region_us.push(ns(t0) / 1e3);
            t.spans.exit(s);
            std::hint::black_box(out);
        }
        rep.put(
            "net.pool.region_us",
            median(&region_us).ok_or("no pool regions")?,
            "us",
        )?;
        Ok(())
    }

    /// Flight-recorder events over the open loop, and the cost of one
    /// recorded event timed from outside on a standalone recorder.
    fn obs(&self, t: &mut Trace, rep: &mut Report) -> Result<(), String> {
        let events = self.after.events - self.mid.events;
        let rec = Arc::new(TraceRecorder::default());
        let s = t.spans.enter("obs.trace", RECORDER_SPANS as u64);
        let t0 = Instant::now();
        for i in 0..RECORDER_SPANS {
            let g = rec.span(Stage::PatternMatch, FiringId::NONE, BatchId::NONE);
            drop(g);
            rec.marker(Marker::Hold, FiringId::NONE, BatchId::NONE, i as u64);
        }
        // A span is two events (enter and exit), a marker one.
        let per_event = ns(t0) / (3 * RECORDER_SPANS) as f64;
        t.spans.exit(s);
        let overhead_ms = per_event * events as f64 / 1e6;
        let busy_ms: f64 = t.calls.values().flatten().sum::<u64>() as f64 / 1e6;
        rep.put("obs.trace.events", events as f64, "count")?;
        rep.put("obs.trace.span_ns", per_event, "ns")?;
        rep.put("obs.trace.overhead_ms", overhead_ms, "ms")?;
        rep.put(
            "obs.trace.overhead_pct",
            overhead_ms / busy_ms.max(1e-9) * 100.0,
            "%",
        )?;
        Ok(())
    }
}

/// Writes the traced run's spans to `wsbench/out/spans-<workload>.tsv`
/// and returns the path.
pub fn write_spans(t: &Trace, args: &Args) -> Result<String, String> {
    let dir = std::path::Path::new("wsbench/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    // One file per workload, overwritten by its latest traced run, so
    // repeated runs do not pile up span files in the checkout.
    let path = dir.join(format!("spans-{}.tsv", args.workload.name()));
    let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut w = std::io::BufWriter::new(file);
    t.spans
        .write_tsv(&mut w)
        .and_then(|()| std::io::Write::flush(&mut w))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path.display().to_string())
}
