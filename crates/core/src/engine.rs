//! The Wukong+S engine: registration, ingestion, triggering, execution.
//!
//! One [`WukongS`] value is a whole deployment. All methods take `&self`;
//! internal locks keep the streaming pipeline serialised while queries
//! execute concurrently against the shared hybrid store — the paper's
//! decentralised architecture where "all streaming and stored data will be
//! shared by concurrent queries" (§2.2).

use crate::access::NodeAccess;
use crate::checkpoint::{Checkpoint, LoggedBatch, LoggedQuery};
use crate::cluster::Cluster;
use crate::config::{EngineConfig, ExecMode};
use crate::forkjoin::execute_forkjoin_traced;
use crate::scrub::ScrubViolation;
use bytes::Bytes;
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use wukong_net::{NodeId, TaskTimer};
use wukong_obs::trace::{self, BatchId, FiringId, Marker, TraceRecorder};
use wukong_obs::{Stage, StageTrace};
use wukong_query::exec::{ExecContext, GraphAccess, StringLiteralResolver, WindowInstance};
use wukong_query::{
    parse_query, plan_query, Degraded, Plan, PlanCache, PlanFeedback, Query, QueryError, QueryKind,
    ResultSet, StepMode,
};
use wukong_rdf::{Dir, Key, StreamId, StringServer, Timestamp, Triple};
use wukong_store::{gc, StatsEpoch};
use wukong_stream::window::StreamWindow;
use wukong_stream::{
    dispatch, Adaptor, Batch, Coordinator, InjectStats, ShedRecord, Shedder, StreamSchema, Vts,
    WindowState,
};

/// Handle of a registered continuous query.
pub type ContinuousId = usize;

/// One ready window batch: the fired `(stream, lo, hi)` instances plus
/// the snapshot the SN-VTS plan assigned to the window's end.
type AssignedBatch = Vec<(Vec<(usize, Timestamp, Timestamp)>, wukong_store::SnapshotId)>;

/// An [`AssignedBatch`] entry after the serial causal-ID mint: the
/// window instances, assigned snapshot, and the firing's [`FiringId`].
type MintedFiring = (
    Vec<(usize, Timestamp, Timestamp)>,
    wukong_store::SnapshotId,
    FiringId,
);

/// Simulated per-batch logging delay under fault tolerance (§6.8 measures
/// ≈ 0.3 ms per batch on the paper's testbed).
const LOGGING_DELAY_NS: u64 = 300_000;

/// How many processed batches of one stream advance the statistics epoch
/// (the plan cache's freshness key). Batch processing is deterministic,
/// so epoch advancement — and therefore every cache hit/miss and re-plan
/// point — replays identically under the same workload.
const STATS_EPOCH_BATCHES: u64 = 32;

/// Operational snapshot of a running deployment (see [`WukongS::stats`]).
#[derive(Debug, Clone)]
pub struct DeploymentStats {
    /// Simulated cluster nodes.
    pub nodes: usize,
    /// Registered streams.
    pub streams: usize,
    /// Registered continuous queries.
    pub continuous_queries: usize,
    /// Triples in the persistent store (initial + absorbed).
    pub stored_triples: u64,
    /// Persistent-store heap bytes across shards.
    pub store_bytes: usize,
    /// Stream-index heap bytes (one canonical copy).
    pub stream_index_bytes: usize,
    /// Transient-ring heap bytes across nodes.
    pub transient_bytes: usize,
    /// Raw (textual) stream bytes received so far.
    pub raw_stream_bytes: usize,
    /// The stable snapshot number.
    pub stable_sn: wukong_store::SnapshotId,
    /// Stream batches processed in total.
    pub batches_processed: u64,
    /// Fabric operation counters.
    pub fabric: wukong_net::MetricsSnapshot,
}

/// What a recovery replayed and restored (see
/// [`WukongS::recover_with_report`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryReport {
    /// Wall-clock duration of the whole recovery path, ms.
    pub recovery_ms: f64,
    /// Logged batches re-enqueued from the checkpoint chain.
    pub replayed_batches: u64,
    /// Continuous queries re-registered from the query log.
    pub replayed_queries: u64,
    /// Batches / sub-batches suppressed as duplicates during replay.
    pub dedup_suppressed: u64,
    /// The stable snapshot number after replay.
    pub restored_stable_sn: u64,
    /// Integrity violations the recovery path detected and routed around
    /// (e.g. a corrupted durable checkpoint rejected by its section
    /// checksums, forcing the pristine upstream copy — DESIGN.md §13).
    pub integrity_violations: u64,
    /// Shards that were in quarantine when the rebuild started; recovery
    /// replays their pristine logged batches, so the rebuilt engine
    /// starts with none.
    pub quarantined_shards: u64,
    /// Causal IDs of every batch the replay re-enqueued, in replay
    /// order. Batch IDs are a pure function of `(stream, timestamp)`,
    /// so these join directly against pre-crash flight-recorder traces.
    pub replayed_batch_ids: Vec<BatchId>,
}

/// The deadline-aware degradation state machine (DESIGN.md §11).
///
/// Only meaningful when [`EngineConfig::ingest_budget`] is set; an
/// unbounded engine stays in `Normal` forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverloadState {
    /// Keeping up: no pending shed tuples, firings inside the budget.
    #[default]
    Normal,
    /// Overloaded: the shedder has dropped tuples (or firings sustainedly
    /// missed the latency budget) and one-shot admission is closed.
    Shedding,
    /// Transient: replaying the retained shed suffix. Observable only
    /// through counters — the replay runs synchronously under the
    /// pipeline lock and lands back in `Normal`.
    CatchUp,
}

/// One execution of a continuous query.
#[derive(Debug, Clone)]
pub struct Firing {
    /// The registered query that fired.
    pub query: ContinuousId,
    /// Its `REGISTER QUERY` name, if any.
    pub name: Option<String>,
    /// End timestamp (inclusive) of the fired windows.
    pub window_end: Timestamp,
    /// The results.
    pub results: ResultSet,
    /// Total latency: real compute + charged network time, ms.
    pub latency_ms: f64,
    /// Staged breakdown of this firing's latency (the disjoint query
    /// stages sum to `latency_ms`; fork-join sub-spans overlap).
    pub stages: StageTrace,
}

struct Registered {
    text: String,
    query: Query,
    /// Query-local stream index → cluster stream index.
    stream_map: Vec<usize>,
    window: Mutex<WindowState>,
    home: NodeId,
    plan: Mutex<Option<Plan>>,
    /// Set when the query is unregistered; retired queries stop firing
    /// and no longer pin GC horizons or index replication.
    retired: std::sync::atomic::AtomicBool,
    /// For CONSTRUCT queries: the derived stream firings feed.
    construct_target: Option<StreamId>,
    /// Rows emitted by the previous firing (IStream semantics: each
    /// firing emits only results that were not in the previous window).
    last_emitted: Mutex<std::collections::HashSet<Vec<wukong_rdf::Vid>>>,
    /// Delta-maintenance state (materialized binding rows tagged with
    /// their contributing batch timestamps), populated only while the
    /// engine runs this query incrementally. `None` means the next
    /// maintained firing rebuilds from scratch — the initial value, and
    /// what recovery restores by re-registering queries fresh.
    delta: Mutex<Option<wukong_query::DeltaState>>,
    /// Cardinality feedback for the current plan (adaptive mode only):
    /// frozen per-step estimates plus the drift streak. Reset whenever
    /// the plan is (re)derived.
    feedback: Mutex<Option<PlanFeedback>>,
}

struct Pipeline {
    adaptors: Vec<Adaptor>,
    coordinator: Coordinator,
    /// Stalled batches per stream, FIFO (injection order within a stream
    /// is a consistency requirement, §4.3).
    pending: Vec<std::collections::VecDeque<Batch>>,
    /// Coalesced clock jumps per stream, FIFO: `(after, to)` pairs from
    /// the adaptor, applied to the coordinator once the batch ending
    /// `after` is inserted on every node (see `drain_pending`).
    clock_jumps: Vec<std::collections::VecDeque<(Timestamp, Timestamp)>>,
    batches_done: Vec<u64>,
    inject_stats: Vec<InjectStats>,
    /// Injection-time consolidation horizon (stable SN − 1).
    merge_upto: Option<wukong_store::SnapshotId>,
    /// Batches logged since the last checkpoint (fault tolerance).
    log: Vec<LoggedBatch>,
    /// Bounded-ingest shedder (inert while `ingest_budget` is `None`).
    shedder: Shedder,
    /// Degradation state machine (DESIGN.md §11).
    overload: OverloadState,
    /// Consecutive continuous firings over the latency budget.
    miss_streak: u32,
    /// Stream time when a latency-miss streak tripped the state machine
    /// (shed-driven trips anchor on the shedder's `last_shed_ts`).
    tripped_at: Option<Timestamp>,
    /// Per-node quarantine flags (DESIGN.md §13): a node whose sub-batch
    /// failed its install-site checksum stops installing and reporting —
    /// its local VTS pins exactly like a dead node's, so no firing ever
    /// advances past the poisoned point — until rebuild-from-checkpoint.
    quarantined: Vec<bool>,
    /// Conservation ledger, ingest side: tuples that entered the
    /// pipeline (scrubber invariant, DESIGN.md §13).
    ledger_in: u64,
    /// Conservation ledger, egress side: tuples handed to per-node
    /// install (or consumed by dedup/rejection) by `process_batch`.
    ledger_installed: u64,
    /// Per-node local VTS entries at the previous scrub pass, for the
    /// monotonicity check.
    scrub_last: Vec<Vec<Timestamp>>,
}

/// A Wukong+S deployment.
pub struct WukongS {
    cfg: EngineConfig,
    cluster: Arc<Cluster>,
    pipeline: Mutex<Pipeline>,
    registry: RwLock<Vec<Arc<Registered>>>,
    next_home: AtomicUsize,
    checkpoints: Mutex<Vec<Bytes>>,
    /// Plan memo keyed on `(normalized text, stats epoch)`; consulted by
    /// registration-time planning, re-planning, and one-shot admission
    /// while [`EngineConfig::adaptive`] is on.
    plan_cache: PlanCache,
    /// The store-statistics epoch: bumped deterministically every
    /// [`STATS_EPOCH_BATCHES`] processed batches per stream, invalidating
    /// cached plans built from older cardinalities.
    stats_epoch: StatsEpoch,
}

impl WukongS {
    /// Boots a deployment.
    pub fn new(cfg: EngineConfig) -> Self {
        Self::with_strings(cfg, Arc::new(StringServer::new()))
    }

    /// Boots a deployment sharing an existing string server (workload
    /// generators intern their entities before the engine exists).
    pub fn with_strings(cfg: EngineConfig, strings: Arc<StringServer>) -> Self {
        let cluster = Arc::new(Cluster::new_with_strings(&cfg, strings));
        cluster.obs().trace().set_enabled(cfg.trace);
        let coordinator = Coordinator::new(cfg.nodes, Vec::new(), cfg.staleness);
        WukongS {
            cluster,
            pipeline: Mutex::new(Pipeline {
                adaptors: Vec::new(),
                coordinator,
                pending: Vec::new(),
                clock_jumps: Vec::new(),
                batches_done: Vec::new(),
                inject_stats: Vec::new(),
                merge_upto: None,
                log: Vec::new(),
                shedder: Shedder::new(cfg.shed_policy, cfg.shed_seed),
                overload: OverloadState::Normal,
                miss_streak: 0,
                tripped_at: None,
                quarantined: vec![false; cfg.nodes],
                ledger_in: 0,
                ledger_installed: 0,
                scrub_last: vec![Vec::new(); cfg.nodes],
            }),
            registry: RwLock::new(Vec::new()),
            next_home: AtomicUsize::new(0),
            checkpoints: Mutex::new(Vec::new()),
            plan_cache: PlanCache::default(),
            stats_epoch: StatsEpoch::new(),
            cfg,
        }
    }

    /// The engine's string server (intern data and query names here).
    pub fn strings(&self) -> &Arc<StringServer> {
        self.cluster.strings()
    }

    /// The underlying cluster (metrics, memory accounting).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// A cloneable handle onto the deployment's observability surfaces
    /// (staged-latency registry + fabric counters); outlives `&self`
    /// borrows, so monitors can hold it across an experiment.
    pub fn handle(&self) -> crate::cluster::ClusterHandle {
        crate::cluster::ClusterHandle::new(Arc::clone(&self.cluster))
    }

    /// The configuration this deployment runs under.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The deployment's flight recorder (always present; event capture
    /// is gated by [`EngineConfig::trace`]).
    fn tracer(&self) -> &Arc<TraceRecorder> {
        self.cluster.obs().trace()
    }

    /// Loads initial stored data (snapshot 0).
    pub fn load_base(&self, triples: impl IntoIterator<Item = Triple>) {
        for t in triples {
            self.cluster.load_base_triple(t);
        }
    }

    /// Registers a stream; the returned ID doubles as the cluster stream
    /// index (any ID in `schema` is overwritten).
    pub fn register_stream(&self, mut schema: StreamSchema) -> StreamId {
        let mut pl = self.pipeline.lock();
        let idx = self.cluster.stream_count();
        schema.id = StreamId(idx as u16);
        let interval = schema.batch_interval_ms;
        let cidx = self.cluster.add_stream(schema.clone());
        debug_assert_eq!(cidx, idx);
        pl.adaptors.push(Adaptor::new(schema));
        pl.coordinator.add_stream(interval);
        pl.pending.push(Default::default());
        pl.clock_jumps.push(Default::default());
        pl.batches_done.push(0);
        pl.inject_stats.push(InjectStats::default());
        StreamId(idx as u16)
    }

    /// Feeds one raw tuple into a stream, pumping any batches it seals.
    ///
    /// Streams share one time axis: observing time `ts` on any stream
    /// also heartbeats every other stream up to `ts` minus one of its
    /// batch intervals (the skew allowance), so quiet streams — e.g. a
    /// derived stream that has not emitted yet — keep sealing empty
    /// batches and never stall the SN-VTS plan (Fig. 11's injector
    /// stall). Tuples arriving within the allowance still land in an
    /// open batch.
    pub fn ingest(&self, stream: StreamId, triple: Triple, ts: Timestamp) {
        // Observed time drives the fault schedule: kills/restarts planned
        // at or before `ts` apply before this tuple's batches dispatch.
        self.cluster.fabric().advance_clock(ts);
        let mut pl = self.pipeline.lock();
        let mut sealed = pl.adaptors[stream.0 as usize].push(triple, ts);
        for (i, a) in pl.adaptors.iter_mut().enumerate() {
            if i != stream.0 as usize {
                let horizon = ts.saturating_sub(a.schema().batch_interval_ms);
                sealed.extend(a.advance_to(horizon));
            }
        }
        self.drain_adaptor_work(&mut pl);
        sealed.sort_by_key(|b| b.timestamp);
        for b in sealed {
            self.enqueue_batch(&mut pl, b);
        }
        self.drain_pending(&mut pl);
        self.maybe_catch_up(&mut pl);
    }

    /// Drains each adaptor's accumulated windowing/sealing time into its
    /// stream's `Adaptor` stage histogram, and its coalesced clock-jump
    /// count into the stream's injection stats.
    fn drain_adaptor_work(&self, pl: &mut Pipeline) {
        for i in 0..pl.adaptors.len() {
            let ns = pl.adaptors[i].take_work_ns();
            pl.inject_stats[i].clock_anomalies += pl.adaptors[i].take_clock_anomalies();
            let jumps = pl.adaptors[i].take_clock_jumps();
            pl.clock_jumps[i].extend(jumps);
            if ns > 0 {
                let name = pl.adaptors[i].schema().name.clone();
                self.cluster
                    .obs()
                    .record_stream_stage(&name, Stage::Adaptor, ns);
            }
        }
    }

    /// Advances every stream's clock to `ts`, sealing quiet batches (the
    /// heartbeat that keeps the VTS — and therefore visibility — moving).
    pub fn advance_time(&self, ts: Timestamp) {
        self.cluster.fabric().advance_clock(ts);
        let mut pl = self.pipeline.lock();
        let mut sealed = Vec::new();
        for a in &mut pl.adaptors {
            sealed.extend(a.advance_to(ts));
        }
        self.drain_adaptor_work(&mut pl);
        // Preserve cross-stream time order for snapshot assignment.
        sealed.sort_by_key(|b| b.timestamp);
        for b in sealed {
            self.enqueue_batch(&mut pl, b);
        }
        self.drain_pending(&mut pl);
        self.maybe_catch_up(&mut pl);
    }

    /// Raw arrival volume of a batch in its textual RDF form (Table 7
    /// compares the index against the data as it arrives on the wire:
    /// N-Triples-style lines with IRI framing and a timestamp).
    fn textual_bytes(&self, batch: &Batch) -> u64 {
        const FRAMING: u64 = 24; // brackets, separators, timestamp digits
                                 // Workload generators intern short local names; on the wire each
                                 // term carries its namespace IRI (LSBench's raw data averages
                                 // ~174 B/triple: 3.75 B triples = 653 GB raw, 6.1).
        const IRI_PREFIX: u64 = 30;
        let names = self.strings().name_lens();
        let len = |n: Option<usize>| n.map_or(8, |l| l as u64);
        batch
            .tuples
            .iter()
            .map(|t| {
                len(names.entity(t.triple.s))
                    + len(names.predicate(t.triple.p))
                    + len(names.entity(t.triple.o))
                    + 3 * IRI_PREFIX
                    + FRAMING
            })
            .sum()
    }

    fn enqueue_batch(&self, pl: &mut Pipeline, batch: Batch) {
        let s = batch.stream.0 as usize;
        // First causal appearance of this batch's ID: a zero-width
        // Adaptor span marking seal → pipeline entry.
        let _seal_span = self
            .tracer()
            .span(Stage::Adaptor, FiringId::NONE, batch.id());
        // Log on arrival, not on processing: a batch stalled behind a
        // dead node's VTS entry must already be in the durable log, or a
        // crash during the outage loses it (§5 logs each batch as it
        // enters the pipeline).
        if self.cfg.fault_tolerance {
            pl.log.push(LoggedBatch {
                stream: s as u16,
                timestamp: batch.timestamp,
                tuples: batch.tuples.clone(),
            });
            pl.inject_stats[s].inject_ns += LOGGING_DELAY_NS;
        }
        pl.ledger_in += batch.tuples.len() as u64;
        pl.pending[s].push_back(batch);

        // Bounded ingest: enforce the per-stream budget over the pending
        // queue. Shed decisions are a pure function of queue occupancy
        // and the configured seed — never wall-clock latency — so the
        // shed log and every degraded marker are byte-identical across
        // runs and worker counts (DESIGN.md §11).
        let Some(budget) = self.cfg.ingest_budget else {
            return;
        };
        let t0 = std::time::Instant::now();
        let shed_log_before = pl.shedder.log().len();
        let shed = pl.shedder.enforce(&mut pl.pending[s], &budget);
        if shed > 0 {
            let overload = self.cluster.obs().overload();
            match pl.shedder.policy() {
                wukong_stream::ShedPolicy::DropOldestWindow => overload.sheds_drop_oldest(1),
                wukong_stream::ShedPolicy::SampleWithinBatch => overload.sheds_sampled(1),
            }
            overload.tuples_shed(shed);
            // Every shed event is a point marker joined on the victim
            // batch's causal ID; the episode *start* (the Normal →
            // Shedding transition) is the anomaly that freezes the
            // recorder into a black-box dump.
            let tracer = self.tracer();
            for rec in &pl.shedder.log()[shed_log_before..] {
                tracer.marker(Marker::Shed, FiringId::NONE, rec.batch, rec.tuples_shed);
            }
            if pl.overload == OverloadState::Normal {
                pl.overload = OverloadState::Shedding;
                overload.state_transitions(1);
                let first = pl.shedder.log()[shed_log_before..]
                    .first()
                    .map(|r| r.batch)
                    .unwrap_or(BatchId::NONE);
                tracer.anomaly(Marker::Shed, FiringId::NONE, first, shed);
            }
            let name = self.cluster.stream(s).schema.name.clone();
            self.cluster.obs().record_stream_stage(
                &name,
                Stage::Shed,
                t0.elapsed().as_nanos() as u64,
            );
        }
    }

    /// The engine-wide stream time: the furthest any stream's stable VTS
    /// entry has reached. Drives the deterministic catch-up trigger.
    fn stream_now(pl: &Pipeline) -> Timestamp {
        pl.coordinator
            .stable_vts()
            .entries()
            .iter()
            .copied()
            .max()
            .unwrap_or(0)
    }

    /// Leaves `Shedding` once the overload subsides: when stream time
    /// passes the last shed (or latency trip) by the configured quiet
    /// period and every node is reachable, replay the retained shed
    /// suffix and return to `Normal`. The trigger reads only stream time
    /// and shedder state, so it fires at the same point in every run.
    fn maybe_catch_up(&self, pl: &mut Pipeline) {
        if self.cfg.ingest_budget.is_none() || pl.overload != OverloadState::Shedding {
            return;
        }
        let now = Self::stream_now(pl);
        let anchor = match (pl.shedder.last_shed_ts(), pl.tripped_at) {
            (Some(a), Some(b)) => a.max(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            // Tripped state without a recorded cause cannot linger.
            (None, None) => 0,
        };
        if now < anchor.saturating_add(self.cfg.overload.catchup_quiet_ms) {
            return;
        }
        // A replay inserts on every node; a dead or unreachable node
        // would miss its share, so wait the outage out.
        let fabric = self.cluster.fabric();
        if (0..self.cluster.nodes()).any(|n| !fabric.is_up(NodeId(n as u16))) {
            return;
        }
        self.catch_up(pl);
    }

    /// Shed-then-catch-up recovery: re-inserts every retained shed tuple
    /// at its original timestamp, directly into the hybrid store at the
    /// current stable snapshot. The coordinator, its at-least-once dedup,
    /// and the durable log are all bypassed — these batches already
    /// passed the pipeline once; this is repair, not re-ingestion. After
    /// the replay, windows covering the shed suffix are whole again:
    /// their firings byte-match a never-overloaded run (DESIGN.md §11).
    fn catch_up(&self, pl: &mut Pipeline) {
        let t0 = std::time::Instant::now();
        let _span = self
            .tracer()
            .span(Stage::CatchUp, FiringId::NONE, BatchId::NONE);
        let overload = self.cluster.obs().overload();
        pl.overload = OverloadState::CatchUp;
        overload.state_transitions(1);

        let retained = pl.shedder.take_retained();
        let sn = pl.coordinator.stable_sn();
        let merge = self.clamped_merge(pl);
        let nodes = self.cluster.nodes();
        let fabric = self.cluster.fabric();
        let mut scratch = TaskTimer::start();
        let mut replayed = 0u64;
        let mut touched: std::collections::BTreeSet<usize> = std::collections::BTreeSet::new();
        for (stream_id, ts, tuples) in retained {
            let s = stream_id.0 as usize;
            touched.insert(s);
            replayed += tuples.len() as u64;
            let batch = Batch::sealed(stream_id, ts, tuples, 0);
            let stream = self.cluster.stream(s);
            *stream.raw_bytes.write() += self.textual_bytes(&batch);
            let subs = dispatch(&batch, self.cluster.shard_map());
            let entry = NodeId((s % nodes) as u16);
            let mut receipts: Vec<Vec<wukong_store::base::AppendReceipt>> = vec![Vec::new(); nodes];
            let mut index_updates: Vec<(wukong_rdf::Key, wukong_rdf::Vid)> = Vec::new();
            for sub in &subs {
                let node = sub.node;
                if node as usize != entry.0 as usize && !sub.tuples.is_empty() {
                    fabric.charge_message(entry, NodeId(node), sub.wire_bytes(), &mut scratch);
                }
                let owns = self.cluster.shard_map().owner_filter(node);
                let shard = self.cluster.shard(node);
                for t in sub.tuples.iter().filter(|t| t.is_timeless()) {
                    let tr = t.triple;
                    let out_key = tr.out_key();
                    if owns(out_key) {
                        shard.count_triple();
                        let (off, first) = shard.append_owned(out_key, tr.o, sn, merge);
                        receipts[node as usize].push(wukong_store::base::AppendReceipt {
                            key: out_key,
                            offset: off,
                        });
                        if first {
                            index_updates
                                .push((wukong_rdf::Key::index(tr.p, wukong_rdf::Dir::Out), tr.s));
                        }
                    }
                    let in_key = tr.in_key();
                    if owns(in_key) {
                        let (off, first) = shard.append_owned(in_key, tr.s, sn, merge);
                        receipts[node as usize].push(wukong_store::base::AppendReceipt {
                            key: in_key,
                            offset: off,
                        });
                        if first {
                            index_updates
                                .push((wukong_rdf::Key::index(tr.p, wukong_rdf::Dir::In), tr.o));
                        }
                    }
                }
                // Timing tuples re-enter the transient ring *in time
                // order* — the ring normally only appends at the tail,
                // so replay uses the order-preserving insertion path.
                let timing: Vec<wukong_rdf::StreamTuple> = sub
                    .tuples
                    .iter()
                    .filter(|t| !t.is_timeless())
                    .copied()
                    .collect();
                if !timing.is_empty() {
                    stream.transients[node as usize].write().insert_slice(
                        wukong_store::TransientSlice::from_batch_filtered(ts, &timing, &owns),
                    );
                }
            }
            // Index-vertex updates land on their owners (phase 2 of the
            // normal injection path).
            for (key, v) in index_updates {
                let node = self.cluster.shard_map().node_of_key(key);
                let (off, _) = self.cluster.shard(node).append_owned(key, v, sn, merge);
                receipts[node as usize]
                    .push(wukong_store::base::AppendReceipt { key, offset: off });
            }
            for (node, rc) in receipts.iter().enumerate() {
                if rc.is_empty() {
                    continue;
                }
                let ib = wukong_store::IndexBatch::from_receipts(ts, rc);
                stream.indexes[node].write().insert_batch(ib);
            }
        }

        // A replay rewrites window history behind any maintained query
        // reading a replayed stream: its retained delta rows were derived
        // from the shed (incomplete) windows. Drop the state so the next
        // firing rebuilds from the now-complete store — recompute and
        // incremental stay byte-identical across the shed gap.
        if self.cfg.incremental {
            for r in self.registry.read().iter() {
                if r.retired.load(Ordering::Relaxed)
                    || !r.stream_map.iter().any(|s| touched.contains(s))
                {
                    continue;
                }
                let mut delta = r.delta.lock();
                if delta.is_some() {
                    *delta = None;
                    overload.incremental_rebuilds(1);
                }
            }
        }

        overload.catchup_replays(1);
        overload.catchup_replayed_tuples(replayed);
        pl.overload = OverloadState::Normal;
        pl.miss_streak = 0;
        pl.tripped_at = None;
        overload.state_transitions(1);
        self.cluster.obs().record_stream_stage(
            "catch-up",
            Stage::CatchUp,
            t0.elapsed().as_nanos() as u64,
        );
    }

    /// The consolidation horizon actually applied to installs: the raw
    /// stable-SN horizon, clamped at every un-fired window's *assigned*
    /// snapshot. Consolidation merges snapshot intervals into the
    /// timeless base — visible at **every** snapshot — so merging past a
    /// window's assigned snapshot would inflate its historical read and
    /// its rows would stop being a pure function of the window (the
    /// assigned-snapshot firing contract, DESIGN.md §13). On-cadence
    /// windows sit at most one epoch behind the horizon, so the clamp
    /// costs nothing in steady state; it only holds consolidation back
    /// while an outage or a recovery replay has delayed firings.
    fn clamped_merge(&self, pl: &Pipeline) -> Option<wukong_store::SnapshotId> {
        let raw = pl.merge_upto?;
        let mut merge = raw;
        for r in self.registry.read().iter() {
            if r.retired.load(Ordering::Relaxed) {
                continue;
            }
            let w = r.window.lock();
            let hi = w.next_fire();
            // A firing reads at the max assigned epoch over its streams;
            // merging up to exactly that snapshot keeps the visible set
            // unchanged (merged tags ⊆ tags the read covers).
            if let Some(sn_w) = w
                .windows()
                .iter()
                .filter_map(|sw| pl.coordinator.snapshot_at(sw.stream, hi))
                .max()
            {
                merge = merge.min(sn_w);
            }
        }
        Some(merge)
    }

    /// Processes pending batches until no stream can make progress.
    fn drain_pending(&self, pl: &mut Pipeline) {
        loop {
            let mut progressed = false;
            for s in 0..pl.pending.len() {
                progressed |= self.apply_clock_jumps(pl, s);
                while let Some(front) = pl.pending[s].front() {
                    let sn = pl.coordinator.snapshot_for(s, front.timestamp);
                    match sn {
                        Some(sn) => {
                            let batch = pl.pending[s].pop_front().expect("front checked");
                            self.process_batch(pl, batch, sn);
                            progressed = true;
                        }
                        None => break,
                    }
                }
            }
            if !progressed {
                return;
            }
        }
    }

    /// Applies stream `s`'s coalesced clock jumps that have become safe:
    /// a jump `(after, to)` promises the adaptor sealed nothing strictly
    /// between `after` and `to`, so once the batch ending `after` is
    /// inserted on **every** node (a dead node catches up via log
    /// replay first — jumping its VTS over a batch it missed would make
    /// the redelivery dedup swallow real data), the skipped grid points
    /// are vacuously-empty insertions and the VTS may cross the gap.
    /// This is what un-stalls the SN-VTS plan after a quiet gap: its
    /// targets inside the gap can never be reached batch-by-batch.
    fn apply_clock_jumps(&self, pl: &mut Pipeline, s: usize) -> bool {
        let mut progressed = false;
        while let Some(&(after, to)) = pl.clock_jumps[s].front() {
            let reached =
                (0..pl.coordinator.nodes()).all(|n| pl.coordinator.local_vts(n).get(s) >= after);
            if !reached {
                break;
            }
            pl.clock_jumps[s].pop_front();
            let ev = pl.coordinator.advance_gap(s, to);
            if let Some(upto) = ev.consolidate_upto {
                pl.merge_upto = Some(upto);
            }
            progressed = true;
        }
        progressed
    }

    fn process_batch(&self, pl: &mut Pipeline, batch: Batch, sn: wukong_store::SnapshotId) {
        let s = batch.stream.0 as usize;
        let bid = batch.id();
        let tracer = Arc::clone(self.tracer());
        // Scoped context for the whole batch path: fabric-level events
        // (dead-node drops, retry exhaustion) attribute to this batch.
        let _scope = trace::install_recorder(&tracer, FiringId::NONE, bid);
        // Conservation ledger: the batch leaves the pending queues here —
        // installed, dedup-suppressed, or rejected alike — so the egress
        // side counts before any early return (scrubber invariant,
        // DESIGN.md §13).
        pl.ledger_installed += batch.tuples.len() as u64;
        // Batch-site integrity: a payload that no longer matches its
        // sealed checksum must never install anywhere. Dropping it stalls
        // the stream's VTS at the previous batch — detection before
        // emission — and recovery replays the pristine logged copy.
        if !batch.verify() {
            self.cluster.obs().integrity().checksum_fail_batch(1);
            tracer.anomaly(Marker::ChecksumFail, FiringId::NONE, bid, 0);
            return;
        }
        // At-least-once suppression: a batch at or below the stream's
        // stable timestamp is already inserted on every node, so a
        // redelivery (upstream retry, log replay into a live engine)
        // must be a no-op.
        if batch.timestamp > 0 && pl.coordinator.stable_vts().get(s) >= batch.timestamp {
            self.cluster.obs().faults().dedup_suppressed(1);
            return;
        }
        let stream = self.cluster.stream(s);
        *stream.raw_bytes.write() += self.textual_bytes(&batch);
        pl.inject_stats[s].discarded += batch.discarded;

        // Dispatch: the stream enters at one node; each non-empty remote
        // sub-batch costs a message (background cost, counted in fabric
        // metrics but not on any query's latency). Under a fault plan the
        // entry point fails over to the next live node, sub-batches go
        // through the lossy at-least-once path (dropped copies are
        // retransmitted, duplicate copies suppressed), and sub-batches
        // for dead nodes are lost until recovery replays the log.
        let dispatch_start = std::time::Instant::now();
        let dispatch_span = tracer.span(Stage::Dispatch, FiringId::NONE, bid);
        let mut subs = dispatch(&batch, self.cluster.shard_map());
        let fabric = self.cluster.fabric();
        let faulty = fabric.faults_enabled();
        let nodes = self.cluster.nodes();
        let mut entry_idx = s % nodes;
        if faulty && !fabric.is_up(NodeId(entry_idx as u16)) {
            if let Some(live) = (0..nodes)
                .map(|k| (entry_idx + k) % nodes)
                .find(|&n| fabric.is_up(NodeId(n as u16)))
            {
                entry_idx = live;
            }
        }
        let entry = NodeId(entry_idx as u16);
        let mut scratch = TaskTimer::start();
        // Which nodes actually receive (and therefore insert and report)
        // this batch. An empty sub-batch "arrives" implicitly — no
        // message — but still only on live nodes.
        let mut delivered = vec![true; nodes];
        for (node, q) in pl.quarantined.iter().enumerate() {
            if *q {
                delivered[node] = false;
            }
        }
        for sub in &subs {
            let to = NodeId(sub.node);
            if !delivered[sub.node as usize] {
                // Quarantined destination: treated exactly like a dead
                // node — no send, no install, no report (DESIGN.md §13).
                continue;
            }
            if faulty && !fabric.is_up(to) {
                delivered[sub.node as usize] = false;
                if !sub.tuples.is_empty() {
                    // Counts the drops; returns 0 copies for a dead node.
                    fabric.send_at_least_once(entry, to, sub.wire_bytes(), &mut scratch);
                }
                continue;
            }
            if sub.tuples.is_empty() {
                continue;
            }
            if faulty {
                let copies = fabric.send_at_least_once(entry, to, sub.wire_bytes(), &mut scratch);
                if copies > 1 {
                    self.cluster
                        .obs()
                        .faults()
                        .dedup_suppressed(u64::from(copies - 1));
                }
            } else {
                fabric.charge_message(entry, to, sub.wire_bytes(), &mut scratch);
            }
        }
        let dispatch_ns = dispatch_start.elapsed().as_nanos() as u64;
        drop(dispatch_span);

        // In-flight corruption (chaos): an active corruption rule may
        // flip one bit in a delivered remote sub-batch between the wire
        // and the store. Only delivered non-empty remote subs are
        // candidates, so every injected flip meets the install-site
        // check below — the 100%-detection gate in `exp_chaos`.
        if faulty {
            if let Some(fs) = fabric.fault_state() {
                for sub in subs.iter_mut() {
                    let node = sub.node as usize;
                    if node == entry_idx || sub.tuples.is_empty() || !delivered[node] {
                        continue;
                    }
                    if let Some(bits) = fs.corrupt_message(entry, NodeId(sub.node)) {
                        let i = (bits >> 8) as usize % sub.tuples.len();
                        sub.tuples[i].triple.o.0 ^= 1 << (bits & 63);
                    }
                }
            }
        }
        // Install-site integrity: a sub-batch that fails its
        // dispatch-time checksum must never reach the store. The
        // receiving shard enters quarantine — it stops installing and
        // reporting, so its local VTS pins exactly like a dead node's
        // and no firing advances past the poisoned point — until
        // rebuild-from-checkpoint replays the pristine logged batches.
        for sub in &subs {
            let node = sub.node as usize;
            if delivered[node] && !sub.verify() {
                let integrity = self.cluster.obs().integrity();
                integrity.checksum_fail_message(1);
                tracer.marker(Marker::ChecksumFail, FiringId::NONE, sub.batch, node as u64);
                if !pl.quarantined[node] {
                    pl.quarantined[node] = true;
                    integrity.quarantines(1);
                    tracer.anomaly(Marker::Quarantine, FiringId::NONE, sub.batch, node as u64);
                }
                delivered[node] = false;
            }
        }

        // Inject on every node, collecting per-node receipts and stats.
        // Each node applies only the key updates it owns; first-edge
        // events produce index-vertex updates that phase 2 routes to the
        // index key's owner (a triple's four key updates may live on
        // three different nodes).
        //
        // Dedup against each node's local VTS is a serial pre-pass (it
        // reads coordinator state); the per-node application itself runs
        // on the entry node's worker pool. Node ownership filters are
        // disjoint, so concurrent sub-batch application touches disjoint
        // shards, transient rings, and pending index updates — race-free
        // by construction, identical receipts for any thread count.
        let merge = self.clamped_merge(pl);
        let ts = batch.timestamp;
        let nodes = self.cluster.nodes();
        for sub in &subs {
            let node = sub.node as usize;
            if delivered[node] && pl.coordinator.already_inserted(node, s, ts) {
                // Redelivered while another node's outage stalls the
                // stable VTS: this node already holds the batch.
                self.cluster.obs().faults().dedup_suppressed(1);
                delivered[node] = false;
            }
        }
        let inject_span = tracer.span(Stage::Injection, FiringId::NONE, bid);
        let applied = self.cluster.pool(entry).map(
            subs.iter().collect::<Vec<&wukong_stream::SubBatch>>(),
            |_, sub| {
                let node = sub.node;
                if !delivered[node as usize] {
                    return None;
                }
                let owns = self.cluster.shard_map().owner_filter(node);
                let shard = self.cluster.shard(node);
                let mut receipts: Vec<wukong_store::base::AppendReceipt> = Vec::new();
                let mut stats = InjectStats::default();
                let mut index_updates: Vec<(wukong_rdf::Key, wukong_rdf::Vid)> = Vec::new();
                let t0 = std::time::Instant::now();
                for t in sub.tuples.iter().filter(|t| t.is_timeless()) {
                    let tr = t.triple;
                    let out_key = tr.out_key();
                    if owns(out_key) {
                        shard.count_triple();
                        stats.timeless += 1;
                        let (off, first) = shard.append_owned(out_key, tr.o, sn, merge);
                        receipts.push(wukong_store::base::AppendReceipt {
                            key: out_key,
                            offset: off,
                        });
                        if first {
                            index_updates
                                .push((wukong_rdf::Key::index(tr.p, wukong_rdf::Dir::Out), tr.s));
                        }
                    }
                    let in_key = tr.in_key();
                    if owns(in_key) {
                        let (off, first) = shard.append_owned(in_key, tr.s, sn, merge);
                        receipts.push(wukong_store::base::AppendReceipt {
                            key: in_key,
                            offset: off,
                        });
                        if first {
                            index_updates
                                .push((wukong_rdf::Key::index(tr.p, wukong_rdf::Dir::In), tr.o));
                        }
                    }
                }
                // Timing tuples into the transient ring (owned entries
                // only). Only this task writes this node's ring.
                let timing: Vec<wukong_rdf::StreamTuple> = sub
                    .tuples
                    .iter()
                    .filter(|t| !t.is_timeless())
                    .copied()
                    .collect();
                stats.timing += timing.len();
                stream.transients[node as usize].write().push_batch(
                    wukong_store::TransientSlice::from_batch_filtered(ts, &timing, &owns),
                );
                stats.inject_ns += t0.elapsed().as_nanos() as u64;
                Some((receipts, stats, index_updates))
            },
        );
        let mut receipts: Vec<Vec<wukong_store::base::AppendReceipt>> = vec![Vec::new(); nodes];
        let mut stats: Vec<InjectStats> = vec![InjectStats::default(); nodes];
        let mut index_updates: Vec<(wukong_rdf::Key, wukong_rdf::Vid)> = Vec::new();
        for (sub, applied) in subs.iter().zip(applied) {
            if let Some((rc, st, iu)) = applied {
                let node = sub.node as usize;
                receipts[node] = rc;
                stats[node] = st;
                index_updates.extend(iu);
            }
        }

        // Phase 2: apply index-vertex updates on their owners. An owner
        // that did not receive the batch misses the update too — recovery
        // replays the whole batch, regenerating it.
        for (key, v) in index_updates {
            let node = self.cluster.shard_map().node_of_key(key);
            if !delivered[node as usize] {
                continue;
            }
            let t0 = std::time::Instant::now();
            let (off, _) = self.cluster.shard(node).append_owned(key, v, sn, merge);
            receipts[node as usize].push(wukong_store::base::AppendReceipt { key, offset: off });
            stats[node as usize].inject_ns += t0.elapsed().as_nanos() as u64;
        }
        drop(inject_span);

        // Install each node's stream-index postings straight from its
        // receipts, keeping the entry count for the replication charge.
        // An undelivered node has no receipts and installs nothing.
        let index_span = tracer.span(Stage::StreamIndex, FiringId::NONE, bid);
        let results: Vec<(usize, InjectStats)> = receipts
            .iter()
            .zip(stats.iter())
            .enumerate()
            .map(|(node, (rc, st))| {
                let t0 = std::time::Instant::now();
                let entries = if delivered[node] {
                    stream.indexes[node].write().push_receipts(ts, rc)
                } else {
                    0
                };
                let mut st = *st;
                st.index_ns += t0.elapsed().as_nanos() as u64;
                (entries, st)
            })
            .collect();
        drop(index_span);

        // Replication of index batches to subscriber nodes (§4.2): one
        // message per (origin, subscriber) pair carrying the entries.
        if self.cluster.replicate_indexes {
            let subscribers = stream.subscribers.read().clone();
            for (m, &(entries, _)) in results.iter().enumerate() {
                if entries == 0 {
                    continue;
                }
                for &q in &subscribers {
                    if q as usize != m && fabric.is_up(NodeId(q)) {
                        fabric.charge_message(
                            NodeId(m as u16),
                            NodeId(q),
                            entries * wukong_store::IndexBatch::ENTRY_WIRE_BYTES,
                            &mut scratch,
                        );
                    }
                }
            }
        }

        // Record this batch's staged breakdown under its stream's series.
        // Injection includes the fault-tolerance logging delay (it is
        // part of the injection path's latency, §6.8).
        let mut batch_trace = StageTrace::new();
        batch_trace.add(Stage::Dispatch, dispatch_ns);
        let logged_ns = if self.cfg.fault_tolerance {
            LOGGING_DELAY_NS
        } else {
            0
        };
        batch_trace.add(
            Stage::Injection,
            logged_ns + results.iter().map(|(_, st)| st.inject_ns).sum::<u64>(),
        );
        batch_trace.add(
            Stage::StreamIndex,
            results.iter().map(|(_, st)| st.index_ns).sum::<u64>(),
        );
        self.cluster
            .obs()
            .record_stream(&stream.schema.name, &batch_trace);

        // Coordinator bookkeeping: per-node insertion reports. A node
        // that never received the batch reports nothing — its local VTS
        // stalls, the stable VTS (elementwise min) stalls with it, and
        // visibility correctly excludes the partial insertion.
        for (node, (_, stats)) in results.into_iter().enumerate() {
            if !delivered[node] {
                continue;
            }
            pl.inject_stats[s].add(&stats);
            let ev = pl.coordinator.on_batch_inserted(node, s, ts);
            if let Some(upto) = ev.consolidate_upto {
                pl.merge_upto = Some(upto);
            }
        }

        // Periodic GC of this stream's transient slices and index batches.
        pl.batches_done[s] += 1;
        if pl.batches_done[s].is_multiple_of(self.cfg.gc_every_batches) {
            self.collect_garbage(pl, s);
        }
        // Advance the statistics epoch on the same deterministic cadence:
        // enough batches have landed that cached plans may be stale.
        if pl.batches_done[s].is_multiple_of(STATS_EPOCH_BATCHES) {
            self.stats_epoch.bump();
        }
    }

    fn collect_garbage(&self, pl: &Pipeline, s: usize) {
        let stable_ts = pl.coordinator.stable_vts().get(s);
        // With no registered query over the stream the expiry horizon is
        // undefined — keep everything (the transient ring's budget still
        // bounds memory) so a query registered later, or re-registered
        // after recovery, finds its window intact.
        let max_range = match self
            .registry
            .read()
            .iter()
            .filter(|r| !r.retired.load(Ordering::Relaxed) && r.stream_map.contains(&s))
            .map(|r| r.query.max_range_ms())
            .max()
        {
            Some(m) => m,
            None => return,
        };
        let expiry = gc::expiry_horizon(stable_ts, [max_range + self.cfg.gc_slack_ms]);
        let stream = self.cluster.stream(s);
        let t0 = std::time::Instant::now();
        let mut swept = gc::GcStats::default();
        for n in 0..self.cluster.nodes() {
            let mut transient = stream.transients[n].write();
            let mut index = stream.indexes[n].write();
            swept.absorb(gc::sweep(&mut transient, &mut index, expiry));
        }
        stream.gc_stats.write().absorb(swept);
        self.cluster.obs().record_stream_stage(
            &stream.schema.name,
            Stage::Gc,
            t0.elapsed().as_nanos() as u64,
        );
    }

    /// Registers a continuous query from C-SPARQL text.
    ///
    /// The query's `FROM <name> [RANGE … STEP …]` clauses must reference
    /// streams previously registered via [`WukongS::register_stream`]
    /// (matched by schema name).
    pub fn register_continuous(&self, text: &str) -> Result<ContinuousId, QueryError> {
        self.register_with_target(text, None)
    }

    /// Registers a continuous `CONSTRUCT` query whose firings instantiate
    /// the template and feed the derived stream `target` — C-SPARQL's
    /// stream-composition pattern: downstream queries consume `target`
    /// like any other stream.
    ///
    /// The emitted tuples carry the firing's window-end timestamp.
    pub fn register_construct(
        &self,
        text: &str,
        target: StreamId,
    ) -> Result<ContinuousId, QueryError> {
        if target.0 as usize >= self.cluster.stream_count() {
            return Err(QueryError::Unresolved(format!(
                "derived stream {target:?} is not registered"
            )));
        }
        self.register_with_target(text, Some(target))
    }

    fn register_with_target(
        &self,
        text: &str,
        target: Option<StreamId>,
    ) -> Result<ContinuousId, QueryError> {
        let query = parse_query(self.strings(), text)?;
        if target.is_some() && query.construct.is_empty() {
            return Err(QueryError::Unsupported(
                "register_construct needs a CONSTRUCT query".into(),
            ));
        }
        if query.kind != QueryKind::Continuous {
            return Err(QueryError::Unsupported(
                "use one_shot() for non-registered queries".into(),
            ));
        }
        if !query.touches_stream() {
            return Err(QueryError::Unsupported(
                "a continuous query must read at least one stream".into(),
            ));
        }

        // Resolve stream names against registered schemas.
        let streams = self.cluster.streams();
        let mut stream_map = Vec::with_capacity(query.streams.len());
        for (name, _) in &query.streams {
            let idx = streams
                .iter()
                .position(|s| s.schema.name == *name)
                .ok_or_else(|| QueryError::Unresolved(format!("stream {name}")))?;
            stream_map.push(idx);
        }

        // Home node: in-place execution dispatches a query to the node
        // owning its constant anchor ("Wukong+S mainly uses a single
        // thread on a single machine to handle a query", §5), so
        // selective queries complete without remote reads; unanchored
        // queries spread round-robin.
        let home = self.home_for(&query);
        for &s in &stream_map {
            self.cluster.stream(s).subscribers.write().insert(home.0);
        }

        // Window state anchored at the current stable position.
        let stable = {
            let pl = self.pipeline.lock();
            pl.coordinator.stable_vts().clone()
        };
        let registered_at = stream_map.iter().map(|&s| stable.get(s)).min().unwrap_or(0);
        let windows = query
            .streams
            .iter()
            .zip(&stream_map)
            .map(|((_, w), &s)| StreamWindow {
                stream: s,
                range_ms: w.range_ms,
                step_ms: w.step_ms,
            })
            .collect();

        let mut registry = self.registry.write();
        let id = registry.len();
        registry.push(Arc::new(Registered {
            text: text.to_owned(),
            query,
            stream_map,
            window: Mutex::new(WindowState::new(windows, registered_at)),
            home,
            plan: Mutex::new(None),
            retired: std::sync::atomic::AtomicBool::new(false),
            construct_target: target,
            last_emitted: Mutex::new(std::collections::HashSet::new()),
            delta: Mutex::new(None),
            feedback: Mutex::new(None),
        }));
        Ok(id)
    }

    /// Unregisters a continuous query: it stops firing, stops pinning GC
    /// horizons, and its home node drops stream-index subscriptions no
    /// other query of that node still needs.
    pub fn unregister_continuous(&self, id: ContinuousId) {
        let registry = self.registry.read();
        let Some(r) = registry.get(id) else { return };
        r.retired.store(true, Ordering::Relaxed);
        for &s in &r.stream_map {
            let still_needed = registry.iter().any(|other| {
                !other.retired.load(Ordering::Relaxed)
                    && other.home == r.home
                    && other.stream_map.contains(&s)
            });
            if !still_needed {
                self.cluster.stream(s).subscribers.write().remove(&r.home.0);
            }
        }
    }

    /// Number of live (non-retired) continuous queries.
    pub fn continuous_count(&self) -> usize {
        self.registry
            .read()
            .iter()
            .filter(|r| !r.retired.load(Ordering::Relaxed))
            .count()
    }

    /// The node a query executes on: the owner of its first constant
    /// anchor, or round-robin when nothing anchors it.
    fn home_for(&self, query: &Query) -> NodeId {
        for p in &query.patterns {
            for term in [p.s, p.o] {
                if let wukong_query::Term::Const(c) = term {
                    return NodeId(self.cluster.shard_map().node_of_vertex(c));
                }
            }
        }
        NodeId((self.next_home.fetch_add(1, Ordering::Relaxed) % self.cluster.nodes()) as u16)
    }

    /// Builds an execution context from a pre-taken visibility snapshot —
    /// lock-free, so pool workers never touch the pipeline lock.
    fn context_at(
        sn: wukong_store::SnapshotId,
        instances: &[(usize, Timestamp, Timestamp)],
    ) -> ExecContext {
        ExecContext {
            sn,
            windows: instances
                .iter()
                .map(|&(s, lo, hi)| WindowInstance {
                    stream: StreamId(s as u16),
                    lo,
                    hi,
                })
                .collect(),
        }
    }

    fn plan_for(&self, r: &Registered, ctx: &ExecContext) -> Plan {
        let mut cached = r.plan.lock();
        if let Some(p) = cached.as_ref() {
            return p.clone();
        }
        let access = NodeAccess::new(&self.cluster, r.home);
        let plan = if self.cfg.adaptive {
            let epoch = self.stats_epoch.current();
            match self.plan_cache.get(&r.text, epoch) {
                Some(p) => {
                    self.cluster.obs().plan().record_cache(true);
                    p
                }
                None => {
                    self.cluster.obs().plan().record_cache(false);
                    let p = plan_query(&r.query, &access, ctx);
                    self.plan_cache.insert(&r.text, epoch, p.clone());
                    p
                }
            }
        } else {
            plan_query(&r.query, &access, ctx)
        };
        if self.cfg.adaptive {
            *r.feedback.lock() = Some(PlanFeedback::for_plan(&plan));
        }
        *cached = Some(plan.clone());
        plan
    }

    /// The network cost model behind adaptive execution-mode selection:
    /// modeled nanoseconds of in-place remote reads vs fork-join
    /// scatter/gather for this plan, under [`EngineConfig::network`].
    ///
    /// In place, a `(nodes-1)/nodes` fraction of each step's estimated
    /// expansions lands on a remote shard and costs one one-sided read.
    /// Fork-join scatters each step's frontier to every node and gathers
    /// it back: two messages per node carrying that node's share of the
    /// rows. Both are *models* over the plan's frozen estimates, so the
    /// decision is deterministic and shared-nothing of wall clock.
    fn forkjoin_pays_off(&self, plan: &Plan) -> bool {
        let nodes = self.cluster.nodes() as u64;
        if nodes <= 1 {
            return false;
        }
        const ROW_BYTES: usize = 16;
        let net = &self.cfg.network;
        let mut inplace: u128 = 0;
        let mut forkjoin: u128 = 0;
        for s in &plan.steps {
            let est = s.estimate as u64;
            inplace += est as u128 * net.read_cost(ROW_BYTES) as u128 * (nodes as u128 - 1)
                / nodes as u128;
            let share = ((est as usize).saturating_mul(ROW_BYTES) / nodes as usize).max(ROW_BYTES);
            forkjoin += 2 * nodes as u128 * net.message_cost(share) as u128;
        }
        forkjoin < inplace
    }

    /// Executes `plan`, filling `fanout` with one `(input rows, output
    /// rows)` pair per step when the in-place executor ran (fork-join
    /// firings leave it empty — their per-partition fan-out is not
    /// comparable to the whole-plan estimates). Also records the modeled
    /// work metric (`edges_traversed`) for every in-place execution, so
    /// static and adaptive runs expose comparable plan-quality numbers.
    #[allow(clippy::too_many_arguments)]
    fn run_traced(
        &self,
        query: &Query,
        plan: &Plan,
        ctx: &ExecContext,
        home: NodeId,
        timer: &mut TaskTimer,
        trace: &mut StageTrace,
        fanout: &mut Vec<(u64, u64)>,
    ) -> ResultSet {
        let lit = StringLiteralResolver(self.strings());
        let forkjoin = match self.cfg.exec_mode {
            ExecMode::InPlace => false,
            ExecMode::ForkJoin => self.cluster.nodes() > 1,
            ExecMode::Auto => {
                if self.cfg.adaptive {
                    let fj = self.forkjoin_pays_off(plan);
                    self.cluster.obs().plan().record_mode(fj);
                    fj
                } else {
                    self.cluster.nodes() > 1
                        && (plan.has_index_scan()
                            || plan
                                .steps
                                .first()
                                .map(|s| s.estimate > 10_000)
                                .unwrap_or(false))
                }
            }
        };
        if forkjoin {
            fanout.clear();
            execute_forkjoin_traced(
                query,
                plan,
                ctx,
                &self.cluster,
                home,
                self.cfg.cores_per_query,
                &lit,
                timer,
                trace,
            )
        } else {
            let access = NodeAccess::new(&self.cluster, home);
            let results = wukong_query::execute_with_fanout(
                query, plan, ctx, &access, &lit, timer, trace, fanout,
            );
            let edges: u64 = fanout.iter().map(|&(_, out)| out).sum();
            self.cluster.obs().plan().edges_traversed(edges);
            results
        }
    }

    /// Executes a registered query over `instances` at the current stable
    /// snapshot (taken under the pipeline lock).
    fn execute_instances(
        &self,
        r: &Registered,
        class: &str,
        instances: &[(usize, Timestamp, Timestamp)],
    ) -> (ResultSet, f64, StageTrace) {
        let sn = self.pipeline.lock().coordinator.stable_sn();
        let (results, ms, trace, _) =
            self.execute_instances_at(r, class, instances, sn, FiringId::NONE);
        (results, ms, trace)
    }

    /// Executes a registered query over `instances` at snapshot `sn`,
    /// measuring window extraction (context + plan) inside the end-to-end
    /// timer and recording the staged trace under `class` in the obs
    /// registry. Safe to call from pool workers: everything it reads is
    /// either the pre-taken snapshot or interior-locked cluster state.
    fn execute_instances_at(
        &self,
        r: &Registered,
        class: &str,
        instances: &[(usize, Timestamp, Timestamp)],
        sn: wukong_store::SnapshotId,
        fid: FiringId,
    ) -> (ResultSet, f64, StageTrace, Vec<(u64, u64)>) {
        let tracer = Arc::clone(self.tracer());
        trace::with_recorder(&tracer, fid, BatchId::NONE, || {
            let mut timer = TaskTimer::start();
            let mut trace = StageTrace::new();
            let mut fanout = Vec::new();
            let t0 = timer.total_ns();
            let we_span = trace::scoped_span(Stage::WindowExtract);
            let ctx = Self::context_at(sn, instances);
            let plan = self.plan_for(r, &ctx);
            drop(we_span);
            trace.add(Stage::WindowExtract, timer.total_ns().saturating_sub(t0));
            let results = self.run_traced(
                &r.query,
                &plan,
                &ctx,
                r.home,
                &mut timer,
                &mut trace,
                &mut fanout,
            );
            let total_ns = timer.total_ns();
            self.cluster.obs().record_query(class, &trace, total_ns);
            (results, total_ns as f64 / 1e6, trace, fanout)
        })
    }

    /// Whether firings of `r` run under delta maintenance right now:
    /// the mode is on, the plan is incrementalizable, and no fault plan
    /// is installed (faults can drop or degrade a firing's reads, which
    /// must not poison retained state — recompute is self-healing).
    fn maintains(&self, r: &Registered) -> bool {
        self.cfg.incremental
            && self.cfg.fault_plan.is_none()
            && wukong_query::incrementalizable(&r.query)
    }

    /// Executes one maintained firing: retract the expired prefix of the
    /// retained rows, derive the inserted suffix from the delta slices,
    /// and finalize the state — instead of re-running the full scan/join.
    /// Must be called serially in window order (state chains firing to
    /// firing), which also makes it trivially worker-count independent.
    fn execute_incremental_at(
        &self,
        r: &Registered,
        class: &str,
        instances: &[(usize, Timestamp, Timestamp)],
        sn: wukong_store::SnapshotId,
        fid: FiringId,
    ) -> (ResultSet, f64, StageTrace, Vec<(u64, u64)>) {
        let tracer = Arc::clone(self.tracer());
        trace::with_recorder(&tracer, fid, BatchId::NONE, || {
            let mut timer = TaskTimer::start();
            let mut trace = StageTrace::new();
            let t0 = timer.total_ns();
            let we_span = trace::scoped_span(Stage::WindowExtract);
            let ctx = Self::context_at(sn, instances);
            let plan = self.plan_for(r, &ctx);
            drop(we_span);
            trace.add(Stage::WindowExtract, timer.total_ns().saturating_sub(t0));
            let access = NodeAccess::new(&self.cluster, r.home);
            let lit = StringLiteralResolver(self.strings());
            // Registered RANGE per query-local stream, in window order — the
            // instance spans can be clamped at the stream epoch and must not
            // shorten row expiry.
            let ranges: Vec<Timestamp> = r
                .window
                .lock()
                .windows()
                .iter()
                .map(|w| w.range_ms)
                .collect();
            let (results, stats) = {
                let mut state = r.delta.lock();
                wukong_query::incremental::maintain(
                    &r.query, &plan, &mut state, &ctx, &ranges, &access, &lit, &mut timer,
                    &mut trace,
                )
            };
            self.cluster.obs().incremental().record_maintained(
                stats.rebuilt,
                stats.rows_reused,
                stats.rows_recomputed,
                stats.rows_retracted,
            );
            let total_ns = timer.total_ns();
            self.cluster.obs().record_query(class, &trace, total_ns);
            // Maintained firings never run the full step loop; drift is
            // observed through probes instead (see `probe_fanout`).
            (results, total_ns as f64 / 1e6, trace, Vec::new())
        })
    }

    /// Synthesizes a feedback observation for a maintained firing by
    /// probing the store for each step's *current* anchor cardinality —
    /// delta maintenance skips the step loop, so probing is the only way
    /// estimate drift stays observable. Constant anchors and index scans
    /// probe the same keys the planner estimated (index probes apply the
    /// planner's 4× multiplier so an unchanged store reads as on-model);
    /// variable-anchored steps have no probeable key and report no
    /// observation (`(0, 0)` is skipped by the detector).
    fn probe_fanout(
        &self,
        r: &Registered,
        instances: &[(usize, Timestamp, Timestamp)],
        sn: wukong_store::SnapshotId,
    ) -> Vec<(u64, u64)> {
        let plan = match r.plan.lock().clone() {
            Some(p) => p,
            None => return Vec::new(),
        };
        let ctx = Self::context_at(sn, instances);
        let access = NodeAccess::new(&self.cluster, r.home);
        plan.steps
            .iter()
            .map(|step| {
                let p = &step.pattern;
                let probe = |key: Key| access.estimate(key, p.graph, &ctx) as u64;
                match step.mode {
                    StepMode::FromSubject => match p.s {
                        wukong_query::Term::Const(c) => (1, probe(Key::new(c, p.p, Dir::Out))),
                        wukong_query::Term::Var(_) => (0, 0),
                    },
                    StepMode::FromObject => match p.o {
                        wukong_query::Term::Const(c) => (1, probe(Key::new(c, p.p, Dir::In))),
                        wukong_query::Term::Var(_) => (0, 0),
                    },
                    StepMode::IndexScan => {
                        (1, probe(Key::index(p.p, Dir::Out)).max(1).saturating_mul(4))
                    }
                }
            })
            .collect()
    }

    /// Feeds one firing's fan-out into `r`'s drift detector. Returns
    /// `true` when the detector trips (the caller re-plans). Serialized
    /// by the caller in window order, so trip points are deterministic.
    fn observe_feedback(&self, r: &Registered, fanout: &[(u64, u64)]) -> bool {
        if fanout.is_empty() {
            return false;
        }
        let mut guard = r.feedback.lock();
        let Some(fb) = guard.as_mut() else {
            return false;
        };
        let before = fb.drifted_firings();
        let trip = fb.observe(fanout, &self.cfg.drift);
        self.cluster
            .obs()
            .plan()
            .record_feedback(fb.drifted_firings() > before);
        trip
    }

    /// Re-derives `r`'s plan against current statistics (a drift trip, or
    /// the [`WukongS::force_replan`] test hook). The new plan lands in
    /// the cache at the current epoch, feedback restarts clean, and any
    /// retained delta state is dropped — the next maintained firing
    /// rebuilds under the new plan, recomputing PR-4 death timestamps
    /// from the same contributing edges, so the firing sequence is
    /// unchanged. The re-planning pause is traced as [`Stage::Replan`]
    /// under the query's class, outside any firing's end-to-end latency.
    fn replan(&self, r: &Registered, ctx: &ExecContext, class: &str, fid: FiringId) {
        let t0 = std::time::Instant::now();
        let access = NodeAccess::new(&self.cluster, r.home);
        let plan = plan_query(&r.query, &access, ctx);
        self.plan_cache
            .insert(&r.text, self.stats_epoch.current(), plan.clone());
        *r.feedback.lock() = Some(PlanFeedback::for_plan(&plan));
        *r.plan.lock() = Some(plan);
        {
            let mut delta = r.delta.lock();
            if delta.is_some() {
                *delta = None;
                self.cluster.obs().plan().delta_rebuilds(1);
            }
        }
        let obs = self.cluster.obs();
        obs.plan().replans(1);
        obs.record_query_stage(class, Stage::Replan, t0.elapsed().as_nanos() as u64);
        // A drift trip is an anomaly worth a black box: the dump carries
        // the firing whose feedback tripped it (NONE for forced re-plans).
        self.tracer().anomaly(Marker::Replan, fid, BatchId::NONE, 0);
    }

    /// Forces an immediate re-plan of registered query `id` against the
    /// current stable snapshot — the hook behind the planner equivalence
    /// battery: a mid-stream plan switch must not change any subsequent
    /// firing. Works regardless of [`EngineConfig::adaptive`].
    pub fn force_replan(&self, id: ContinuousId) {
        let r = Arc::clone(&self.registry.read()[id]);
        if r.retired.load(Ordering::Relaxed) {
            return;
        }
        let (stable, sn) = {
            let pl = self.pipeline.lock();
            pl.coordinator.visibility()
        };
        let instances: Vec<(usize, Timestamp, Timestamp)> = r
            .window
            .lock()
            .windows()
            .iter()
            .map(|w| {
                let hi = stable.get(w.stream);
                (w.stream, hi.saturating_sub(w.range_ms) + 1, hi)
            })
            .collect();
        let ctx = Self::context_at(sn, &instances);
        let class = Self::query_class(&r, id);
        self.replan(&r, &ctx, &class, FiringId::NONE);
    }

    /// The engine's plan cache (hit/miss counters, for tests/reports).
    pub fn plan_cache(&self) -> &PlanCache {
        &self.plan_cache
    }

    /// The current store-statistics epoch.
    pub fn stats_epoch(&self) -> u64 {
        self.stats_epoch.current()
    }

    /// The batch-grid lineage of one firing: every sealed batch a fired
    /// window consumed, enumerated as the multiples of each stream's
    /// batch interval inside `[lo, hi]`. Batch IDs are a pure function of
    /// `(stream, timestamp)`, so the lineage is exact without retaining
    /// any per-batch state — and identical across recovery replays.
    fn lineage_of(&self, instances: &[(usize, Timestamp, Timestamp)]) -> Vec<BatchId> {
        let mut out = Vec::new();
        for &(s, lo, hi) in instances {
            let interval = self.cluster.stream(s).schema.batch_interval_ms.max(1);
            let mut ts = lo.div_ceil(interval) * interval;
            while ts <= hi {
                out.push(BatchId::mint(s as u16, ts));
                // One past the cap is enough for `mint_firing` to set the
                // truncation flag; no point enumerating further.
                if out.len() > TraceRecorder::LINEAGE_CAP {
                    return out;
                }
                ts += interval;
            }
        }
        out
    }

    fn query_class(r: &Registered, id: ContinuousId) -> String {
        r.query
            .name
            .clone()
            .unwrap_or_else(|| format!("query-{id}"))
    }

    /// Fires every continuous query whose next windows are covered by the
    /// stable VTS — the data-driven execution model (§4.3).
    ///
    /// Queries fire in registration order (CONSTRUCT-derived data feeds
    /// downstream consumers deterministically), but one query's batch of
    /// ready windows executes *in parallel* on its home node's worker
    /// pool, all against the same visibility snapshot. Firing order,
    /// result rows, and CONSTRUCT emissions are identical for any
    /// `worker_threads` value (DESIGN.md §9).
    pub fn fire_ready(&self) -> Vec<Firing> {
        let (stable, quarantined) = {
            let pl = self.pipeline.lock();
            (
                pl.coordinator.stable_vts().clone(),
                Self::quarantined_of(&pl),
            )
        };
        let registry: Vec<Arc<Registered>> = self.registry.read().clone();
        let mut out = Vec::new();
        for (id, r) in registry.iter().enumerate() {
            if r.retired.load(Ordering::Relaxed) {
                continue;
            }
            // Gather every window batch this query can fire, each tagged
            // with its *assigned* snapshot — the epoch the SN-VTS plan
            // gave the window's end, not the stable SN of the moment the
            // firing happens to run. Faults delay firings; executing at
            // the fire-time snapshot would make rows depend on *when* the
            // window fired (more data visible at a later SN), a silent
            // divergence no marker explains. Assigned-snapshot execution
            // makes every firing's rows a pure function of the window
            // (DESIGN.md §13). A window whose epoch has not retired yet
            // is held for a later round: its snapshot is still being
            // inserted, so reading it would race the injectors.
            let batch: AssignedBatch = {
                let pl = self.pipeline.lock();
                let cur_sn = pl.coordinator.stable_sn();
                let mut w = r.window.lock();
                let mut b = Vec::new();
                while w.ready(&stable) {
                    let hi = w.next_fire();
                    let sn_w = w
                        .windows()
                        .iter()
                        .filter_map(|sw| pl.coordinator.snapshot_at(sw.stream, hi))
                        .max()
                        .unwrap_or(cur_sn);
                    if sn_w > cur_sn {
                        // Window held: its assigned epoch has not retired
                        // yet. A point marker records the hold so stalled
                        // firings are visible in the flight recorder.
                        self.tracer()
                            .marker(Marker::Hold, FiringId::NONE, BatchId::NONE, sn_w.0);
                        break;
                    }
                    b.push((w.fire(), sn_w));
                }
                b
            };
            if batch.is_empty() {
                continue;
            }
            let class = Self::query_class(r, id);
            let maintained = self.maintains(r);
            // Mint causal firing IDs serially, in window order, before
            // any parallel execution — IDs (and dump lineage) are
            // deterministic at every worker count. Minting happens even
            // with tracing off so results never depend on the flag.
            let tracer = Arc::clone(self.tracer());
            let batch: Vec<MintedFiring> = batch
                .into_iter()
                .map(|(instances, sn_w)| {
                    let windows: Vec<(u16, u64, u64)> = instances
                        .iter()
                        .map(|&(s, lo, hi)| (s as u16, lo, hi))
                        .collect();
                    let lineage = self.lineage_of(&instances);
                    let fid = tracer.mint_firing(&class, windows, sn_w.0, lineage);
                    (instances, sn_w, fid)
                })
                .collect();
            let executed: Vec<_> = if maintained {
                // Delta maintenance chains state from window to window,
                // so a maintained query's batch runs serially in window
                // order — identical at any worker count.
                batch
                    .into_iter()
                    .map(|(instances, sn_w, fid)| {
                        let run = self.execute_incremental_at(r, &class, &instances, sn_w, fid);
                        (instances, sn_w, fid, run)
                    })
                    .collect()
            } else {
                if self.cfg.incremental {
                    // The mode is on but this query recomputes (plan not
                    // incrementalizable, or a fault plan is installed).
                    let inc = self.cluster.obs().incremental();
                    batch.iter().for_each(|_| inc.fallback_firings(1));
                }
                self.cluster
                    .pool(r.home)
                    .map(batch, |_, (instances, sn_w, fid)| {
                        let run = self.execute_instances_at(r, &class, &instances, sn_w, fid);
                        (instances, sn_w, fid, run)
                    })
            };
            // CONSTRUCT feeding, firing emission, and cardinality
            // feedback stay serialized on the coordinator side, in
            // window order — feedback order (and thus every re-plan
            // point) is independent of the worker count.
            let mut replanned_in_batch = false;
            for (instances, sn_w, fid, (mut results, latency_ms, stages, fanout)) in executed {
                let window_end = instances.first().map(|i| i.2).unwrap_or(0);
                if self.cfg.adaptive && !replanned_in_batch {
                    // Firings executed after a mid-batch re-plan still
                    // ran the *old* plan; observing them against the new
                    // estimates would be meaningless, so feedback skips
                    // the rest of this batch.
                    let observed = if maintained {
                        self.probe_fanout(r, &instances, sn_w)
                    } else {
                        fanout
                    };
                    if self.observe_feedback(r, &observed) {
                        let ctx = Self::context_at(sn_w, &instances);
                        self.replan(r, &ctx, &class, fid);
                        replanned_in_batch = true;
                    }
                }
                self.degrade_and_track(&instances, &mut results, latency_ms, fid);
                self.tracer().debug_assert_depth_zero(&class);
                // CONSTRUCT firings feed their derived stream with
                // IStream semantics: only rows new relative to the
                // previous firing are instantiated, so sliding windows do
                // not re-emit their overlap.
                if let Some(target) = r.construct_target {
                    let mut seen = r.last_emitted.lock();
                    let current: std::collections::HashSet<Vec<wukong_rdf::Vid>> =
                        results.rows.iter().cloned().collect();
                    for row in results.rows.iter().filter(|row| !seen.contains(*row)) {
                        for t in &r.query.construct {
                            let resolve = |term: wukong_query::Term| match term {
                                wukong_query::Term::Const(c) => Some(c),
                                wukong_query::Term::Var(v) => {
                                    let col = r
                                        .query
                                        .select
                                        .iter()
                                        .position(|&s| s == v)
                                        .expect("template vars are selected");
                                    let val = row[col];
                                    (val.0 != u64::MAX).then_some(val)
                                }
                            };
                            if let (Some(ts), Some(to)) = (resolve(t.s), resolve(t.o)) {
                                self.ingest(target, Triple::new(ts, t.p, to), window_end);
                            }
                        }
                    }
                    *seen = current;
                }
                if !quarantined.is_empty() {
                    // Containment marker: the firing executed against a
                    // visibility snapshot pinned below every quarantined
                    // shard's poisoned point, and says so (DESIGN.md §13).
                    results.quarantined_shards = quarantined.clone();
                }
                out.push(Firing {
                    query: id,
                    name: r.query.name.clone(),
                    window_end,
                    results,
                    latency_ms,
                    stages,
                });
            }
        }
        out
    }

    /// Exact staleness accounting for one firing: if any consumed window
    /// covers a batch the shedder dropped tuples from (and has not yet
    /// replayed), the firing's result carries a `degraded` marker with
    /// the precise shed count and window tally. Also advances the
    /// latency-miss streak of the degradation state machine — the only
    /// wall-clock input, and it only ever *opens* shedding (admission
    /// control), never drives a shed decision, so determinism holds.
    fn degrade_and_track(
        &self,
        instances: &[(usize, Timestamp, Timestamp)],
        results: &mut ResultSet,
        latency_ms: f64,
        fid: FiringId,
    ) {
        let mut pl = self.pipeline.lock();
        let mut tuples_shed = 0u64;
        let mut windows_affected = 0u32;
        let mut windows_aged = 0u32;
        for &(s, lo, hi) in instances {
            let n = pl.shedder.outstanding_in(StreamId(s as u16), lo, hi);
            if n > 0 {
                tuples_shed += n;
                windows_affected += 1;
            }
            // Aging: a window that reaches below any node's transient
            // eviction watermark fired too far behind stream time (an
            // outage, a recovery replay, a clock jump) and may be
            // missing aged-out rows. On-cadence firings never trip this
            // — GC keeps `gc_slack_ms` of headroom behind the widest
            // window — so the marker singles out exactly the delayed
            // firings whose retention ran out.
            let stream = self.cluster.stream(s);
            if (0..self.cluster.nodes()).any(|n| stream.transients[n].read().evicted_upto() > lo) {
                windows_aged += 1;
            }
        }
        if tuples_shed > 0 || windows_aged > 0 {
            results.degraded = Some(Degraded {
                tuples_shed,
                windows_affected,
                windows_aged,
            });
            self.cluster.obs().overload().degraded_firings(1);
        }
        // The latency-miss streak may *open* shedding, which only makes
        // sense when an ingest budget bounds what shedding admits — an
        // unbudgeted engine marks degradation but never sheds.
        if self.cfg.ingest_budget.is_none() {
            return;
        }
        if latency_ms > self.cfg.overload.latency_budget_ms {
            pl.miss_streak += 1;
            // Deadline degradation: the firing overran its latency
            // budget. The anomaly's dump links the firing's full lineage
            // so the slow path is reconstructible after the fact.
            self.tracer().anomaly(
                Marker::DeadlineMiss,
                fid,
                BatchId::NONE,
                (latency_ms * 1_000.0) as u64,
            );
            if pl.miss_streak >= self.cfg.overload.trip_after_misses
                && pl.overload == OverloadState::Normal
            {
                pl.overload = OverloadState::Shedding;
                pl.tripped_at = Some(Self::stream_now(&pl));
                self.cluster.obs().overload().state_transitions(1);
            }
        } else {
            pl.miss_streak = 0;
        }
    }

    /// The degradation state machine's current state.
    pub fn overload_state(&self) -> OverloadState {
        self.pipeline.lock().overload
    }

    /// The append-only shed log — the determinism witness: same seed,
    /// same spike ⇒ byte-identical logs across runs and worker counts.
    pub fn shed_log(&self) -> Vec<ShedRecord> {
        self.pipeline.lock().shedder.log().to_vec()
    }

    /// Total tuples ever shed (including any later replayed).
    pub fn total_shed(&self) -> u64 {
        self.pipeline.lock().shedder.total_shed()
    }

    /// Shed tuples not yet restored by a catch-up replay — the exact
    /// staleness currently visible to degraded firings.
    pub fn shed_outstanding(&self) -> u64 {
        self.pipeline.lock().shedder.outstanding_total()
    }

    fn quarantined_of(pl: &Pipeline) -> Vec<u16> {
        pl.quarantined
            .iter()
            .enumerate()
            .filter(|(_, &q)| q)
            .map(|(n, _)| n as u16)
            .collect()
    }

    /// Shards currently quarantined by an install-site checksum failure
    /// (DESIGN.md §13). A quarantined shard installs and reports nothing
    /// — its local VTS pins like a dead node's — until
    /// rebuild-from-checkpoint clears it.
    pub fn quarantined_nodes(&self) -> Vec<u16> {
        Self::quarantined_of(&self.pipeline.lock())
    }

    /// The invariant scrubber (DESIGN.md §13): re-checks, between
    /// firings, invariants the design argues hold by construction —
    /// per-node VTS monotonicity since the previous scrub, the stable
    /// VTS never ahead of the element-wise minimum of the local VTS, the
    /// ingest conservation ledger (`ingested = installed + pending +
    /// shed`), and every maintained query's death-timestamp bound
    /// (`death > hi` for each retained row). Violations are returned and
    /// counted into [`wukong_obs::IntegrityCounters`]; a clean engine
    /// reports none under any fault schedule.
    pub fn scrub(&self) -> Vec<ScrubViolation> {
        let mut out = Vec::new();
        {
            let mut pl = self.pipeline.lock();
            let nodes = self.cluster.nodes();
            for n in 0..nodes {
                let now = pl.coordinator.local_vts(n).entries().to_vec();
                for (s, (&was, &cur)) in pl.scrub_last[n].iter().zip(&now).enumerate() {
                    if cur < was {
                        out.push(ScrubViolation::VtsRegression {
                            node: n as u16,
                            stream: s as u16,
                            was,
                            now: cur,
                        });
                    }
                }
                pl.scrub_last[n] = now;
            }
            for s in 0..pl.coordinator.streams() {
                let stable = pl.coordinator.stable_vts().get(s);
                let min_local = (0..nodes)
                    .map(|n| pl.coordinator.local_vts(n).get(s))
                    .min()
                    .unwrap_or(stable);
                if stable > min_local {
                    out.push(ScrubViolation::StableAhead {
                        stream: s as u16,
                        stable,
                        min_local,
                    });
                }
            }
            let pending: u64 = pl
                .pending
                .iter()
                .flat_map(|q| q.iter())
                .map(|b| b.tuples.len() as u64)
                .sum();
            let shed = pl.shedder.total_shed();
            if pl.ledger_in != pl.ledger_installed + pending + shed {
                out.push(ScrubViolation::ConservationMismatch {
                    ingested: pl.ledger_in,
                    installed: pl.ledger_installed,
                    pending,
                    shed,
                });
            }
        }
        // Death bounds read per-query delta state outside the pipeline
        // lock (same order the firing path takes them).
        for r in self.registry.read().iter() {
            if r.retired.load(Ordering::Relaxed) {
                continue;
            }
            let delta = r.delta.lock();
            let Some(st) = delta.as_ref() else { continue };
            let hi = st.windows().iter().map(|w| w.hi).max().unwrap_or(0);
            let rows = st.rows();
            for i in 0..rows.len() {
                if rows.death(i) <= hi {
                    out.push(ScrubViolation::DeathBound {
                        query: r
                            .query
                            .name
                            .clone()
                            .unwrap_or_else(|| "<unnamed>".to_string()),
                        death: rows.death(i),
                        hi,
                    });
                }
            }
        }
        if !out.is_empty() {
            self.cluster
                .obs()
                .integrity()
                .scrub_violations(out.len() as u64);
            // Scrub violations reuse the checksum-failure anomaly class:
            // both are state-integrity breaches, and the dump captures
            // whatever the recorder saw leading up to the breach.
            self.tracer().anomaly(
                Marker::ChecksumFail,
                FiringId::NONE,
                BatchId::NONE,
                out.len() as u64,
            );
        }
        out
    }

    /// Executes a registered query once against its *current* windows
    /// without advancing its firing cursor — the building block of the
    /// throughput experiments, where emulated clients re-execute shared
    /// query classes as fast as the engine allows (§6.6).
    /// Executing a retired query returns an empty result.
    pub fn execute_registered(&self, id: ContinuousId) -> (ResultSet, f64) {
        let r = Arc::clone(&self.registry.read()[id]);
        if r.retired.load(Ordering::Relaxed) {
            return (ResultSet::empty(Vec::new()), 0.0);
        }
        let stable = {
            let pl = self.pipeline.lock();
            pl.coordinator.stable_vts().clone()
        };
        let instances: Vec<(usize, Timestamp, Timestamp)> = r
            .window
            .lock()
            .windows()
            .iter()
            .map(|w| {
                let hi = stable.get(w.stream);
                (w.stream, hi.saturating_sub(w.range_ms) + 1, hi)
            })
            .collect();
        let class = Self::query_class(&r, id);
        let (results, ms, _) = self.execute_instances(&r, &class, &instances);
        (results, ms)
    }

    /// Runs a one-shot query immediately over the stable snapshot.
    ///
    /// One-shot queries normally read only the stored graph; a one-shot
    /// may however declare stream windows (`FROM <stream> [RANGE … STEP …]`)
    /// to read the *current* window of a stream once — the time-scoped
    /// one-shot of the paper's footnote 10 (Time-ontology support). Such
    /// windows end at the stream's stable VTS entry.
    pub fn one_shot(&self, text: &str) -> Result<(ResultSet, f64), QueryError> {
        let query = parse_query(self.strings(), text)?;
        if query.kind != QueryKind::OneShot {
            return Err(QueryError::Unsupported(
                "use register_continuous() for REGISTER QUERY".into(),
            ));
        }

        let (sn, windows, quarantined) = {
            let pl = self.pipeline.lock();
            // Admission control: while the engine sheds load, one-shot
            // work is turned away before continuous queries degrade —
            // one-shots have no freshness contract and can retry later
            // (DESIGN.md §11). Unbounded engines never reject.
            if self.cfg.ingest_budget.is_some() && pl.overload != OverloadState::Normal {
                self.cluster.obs().overload().admission_rejected(1);
                return Err(QueryError::Overloaded(
                    "the engine is shedding load; retry after catch-up".into(),
                ));
            }
            let sn = pl.coordinator.stable_sn();
            let quarantined = Self::quarantined_of(&pl);
            if query.streams.is_empty() {
                if query.touches_stream() {
                    return Err(QueryError::MissingWindow(
                        "one-shot GRAPH <stream> patterns need FROM windows".into(),
                    ));
                }
                (sn, Vec::new(), quarantined)
            } else {
                // Resolve stream names and build windows at the stable VTS.
                let streams = self.cluster.streams();
                let mut windows = Vec::with_capacity(query.streams.len());
                for (name, spec) in &query.streams {
                    let idx = streams
                        .iter()
                        .position(|s| s.schema.name == *name)
                        .ok_or_else(|| QueryError::Unresolved(format!("stream {name}")))?;
                    let hi = pl.coordinator.stable_vts().get(idx);
                    windows.push(WindowInstance {
                        stream: StreamId(idx as u16),
                        lo: hi.saturating_sub(spec.range_ms) + 1,
                        hi,
                    });
                }
                (sn, windows, quarantined)
            }
        };
        let ctx = ExecContext { sn, windows };
        let home = self.home_for(&query);
        let mut timer = TaskTimer::start();
        let mut trace = StageTrace::new();
        let t0 = timer.total_ns();
        let access = NodeAccess::new(&self.cluster, home);
        let plan = if self.cfg.adaptive {
            // One-shot bursts re-submit textually identical queries many
            // times per second; within one statistics epoch the cached
            // plan is what the planner would rebuild, and results are
            // plan-independent either way.
            let epoch = self.stats_epoch.current();
            match self.plan_cache.get(text, epoch) {
                Some(p) => {
                    self.cluster.obs().plan().record_cache(true);
                    p
                }
                None => {
                    self.cluster.obs().plan().record_cache(false);
                    let p = plan_query(&query, &access, &ctx);
                    self.plan_cache.insert(text, epoch, p.clone());
                    p
                }
            }
        } else {
            plan_query(&query, &access, &ctx)
        };
        trace.add(Stage::WindowExtract, timer.total_ns().saturating_sub(t0));
        let mut fanout = Vec::new();
        let mut results = self.run_traced(
            &query,
            &plan,
            &ctx,
            home,
            &mut timer,
            &mut trace,
            &mut fanout,
        );
        if !quarantined.is_empty() {
            results.quarantined_shards = quarantined;
        }
        let total_ns = timer.total_ns();
        let class = query.name.clone().unwrap_or_else(|| "one-shot".to_string());
        self.cluster.obs().record_query(&class, &trace, total_ns);
        Ok((results, total_ns as f64 / 1e6))
    }

    /// Runs a batch of independent one-shot queries on node 0's worker
    /// pool. Each query takes its own visibility snapshot exactly as
    /// [`WukongS::one_shot`] does, but with no stream batches arriving
    /// between queries (the caller holds the timeline) every member sees
    /// the same stable SN, and the result vector is ordered like `texts`
    /// regardless of `worker_threads`.
    pub fn one_shot_batch(&self, texts: &[&str]) -> Vec<Result<(ResultSet, f64), QueryError>> {
        self.cluster
            .pool(NodeId(0))
            .map(texts.to_vec(), |_, text| self.one_shot(text))
    }

    /// The stable snapshot number (what one-shot queries read).
    pub fn stable_sn(&self) -> wukong_store::SnapshotId {
        self.pipeline.lock().coordinator.stable_sn()
    }

    /// The stable VTS entry for `stream` (continuous-query visibility).
    pub fn stable_ts(&self, stream: StreamId) -> Timestamp {
        self.pipeline
            .lock()
            .coordinator
            .stable_vts()
            .get(stream.0 as usize)
    }

    /// Accumulated injection statistics and batch count for `stream`
    /// (Table 6).
    pub fn injection_stats(&self, stream: StreamId) -> (InjectStats, u64) {
        let pl = self.pipeline.lock();
        (
            pl.inject_stats[stream.0 as usize],
            pl.batches_done[stream.0 as usize],
        )
    }

    /// A consolidated operational snapshot of the deployment.
    pub fn stats(&self) -> DeploymentStats {
        let pl = self.pipeline.lock();
        let mut stream_index_bytes = 0;
        let mut transient_bytes = 0;
        let mut raw_stream_bytes = 0;
        for s in self.cluster.streams() {
            stream_index_bytes += s.index_bytes();
            transient_bytes += s.transient_bytes();
            raw_stream_bytes += *s.raw_bytes.read() as usize;
        }
        DeploymentStats {
            nodes: self.cluster.nodes(),
            streams: self.cluster.stream_count(),
            continuous_queries: self.registry.read().len(),
            stored_triples: self.cluster.triple_count(),
            store_bytes: self.cluster.store_bytes(),
            stream_index_bytes,
            transient_bytes,
            raw_stream_bytes,
            stable_sn: pl.coordinator.stable_sn(),
            batches_processed: pl.batches_done.iter().sum(),
            fabric: self.cluster.fabric().metrics(),
        }
    }

    /// Takes a checkpoint: registered queries, per-node VTS, and every
    /// batch since the previous checkpoint. Returns the encoded bytes
    /// (also retained internally for [`WukongS::recover`]).
    pub fn checkpoint(&self) -> Bytes {
        let mut pl = self.pipeline.lock();
        let cp = Checkpoint {
            local_vts: (0..self.cluster.nodes())
                .map(|n| pl.coordinator.local_vts(n).entries().to_vec())
                .collect(),
            queries: self
                .registry
                .read()
                .iter()
                .filter(|r| !r.retired.load(Ordering::Relaxed))
                .map(|r| LoggedQuery {
                    text: r.text.clone(),
                    construct_target: r.construct_target.map(|t| t.0),
                })
                .collect(),
            batches: std::mem::take(&mut pl.log),
        };
        let bytes = cp.encode();
        self.checkpoints.lock().push(bytes.clone());
        bytes
    }

    /// All checkpoints taken so far.
    pub fn checkpoints(&self) -> Vec<Bytes> {
        self.checkpoints.lock().clone()
    }

    /// Like [`WukongS::checkpoint`] but *non-draining*: encodes every
    /// batch logged since the last drained checkpoint while leaving the
    /// internal log untouched. This is the durable state a crash sees —
    /// the about-to-die engine is never told anything happened.
    pub fn tail_checkpoint(&self) -> Bytes {
        let pl = self.pipeline.lock();
        let cp = Checkpoint {
            local_vts: (0..self.cluster.nodes())
                .map(|n| pl.coordinator.local_vts(n).entries().to_vec())
                .collect(),
            queries: self
                .registry
                .read()
                .iter()
                .filter(|r| !r.retired.load(Ordering::Relaxed))
                .map(|r| LoggedQuery {
                    text: r.text.clone(),
                    construct_target: r.construct_target.map(|t| t.0),
                })
                .collect(),
            batches: pl.log.clone(),
        };
        cp.encode()
    }

    /// Rebuilds a deployment after a failure: reload the initial data,
    /// re-register the streams, replay the checkpoints in order, then
    /// re-register the continuous queries and catch their windows up to
    /// the restored stable VTS (at-least-once: the window *at* the
    /// horizon may re-fire, §5).
    pub fn recover(
        cfg: EngineConfig,
        base: impl IntoIterator<Item = Triple>,
        schemas: Vec<StreamSchema>,
        strings: &Arc<StringServer>,
        checkpoints: &[Bytes],
    ) -> Result<Self, crate::checkpoint::CheckpointError> {
        Self::recover_with_report(cfg, base, schemas, strings, checkpoints).map(|(e, _)| e)
    }

    /// [`WukongS::recover`] plus a [`RecoveryReport`] of what the replay
    /// did; the end-to-end wall time is also recorded under the
    /// `recovery` series of the new deployment's obs registry.
    pub fn recover_with_report(
        cfg: EngineConfig,
        base: impl IntoIterator<Item = Triple>,
        schemas: Vec<StreamSchema>,
        strings: &Arc<StringServer>,
        checkpoints: &[Bytes],
    ) -> Result<(Self, RecoveryReport), crate::checkpoint::CheckpointError> {
        let t0 = std::time::Instant::now();
        // Share the original string server: IDs in checkpoints refer to it
        // (in production it is reloaded as part of the initial dataset).
        let engine = WukongS::with_strings(cfg, Arc::clone(strings));
        let recovery_span = engine
            .tracer()
            .span(Stage::Recovery, FiringId::NONE, BatchId::NONE);
        engine.load_base(base);
        for schema in schemas {
            engine.register_stream(schema);
        }
        let mut report = RecoveryReport::default();
        let before = engine.cluster.obs().faults().snapshot();

        // Re-register the continuous queries *before* replaying data so
        // the garbage collector's expiry horizons respect their windows
        // (the query-registration log is replayed first, §5).
        let mut registered: Vec<String> = Vec::new();
        // The stable VTS the crashed engine had actually reached, as
        // persisted in the last checkpoint's per-node entries. Replay may
        // push the *new* stable VTS far beyond it (a dead node's stall
        // disappears once every replayed batch lands on live nodes), and
        // catching windows up to the replayed VTS would silently skip
        // every firing the outage had delayed — a lost-firing bug.
        let mut cp_stable: Option<Vts> = None;
        // Per-stream high-water mark of replayed batch timestamps, for
        // re-synthesizing coalesced clock jumps (below).
        let mut replay_high: Vec<Timestamp> = Vec::new();
        for bytes in checkpoints {
            let cp = Checkpoint::decode(bytes)?;
            for q in &cp.queries {
                if !registered.contains(&q.text) {
                    engine
                        .register_with_target(&q.text, q.construct_target.map(StreamId))
                        .expect("checkpointed query re-parses");
                    registered.push(q.text.clone());
                    report.replayed_queries += 1;
                }
            }
            if !cp.local_vts.is_empty() {
                let locals: Vec<Vts> = cp
                    .local_vts
                    .iter()
                    .map(|e| Vts::from_entries(e.clone()))
                    .collect();
                cp_stable = Some(Vts::stable(locals.iter()));
            }
            let mut pl = engine.pipeline.lock();
            for lb in cp.batches {
                // The log is the complete sealed-batch sequence, so a
                // hole between consecutive logged timestamps proves the
                // adaptor sealed nothing in between — it coalesced the
                // gap into a clock jump. The jump itself is adaptor
                // runtime state and died with the crash; re-synthesize
                // it here, or the post-gap batch heads the FIFO pending
                // queue forever (`snapshot_for` can never reach it) and
                // the replayed VTS deadlocks below the gap.
                let s = lb.stream as usize;
                let interval = pl.adaptors[s].schema().batch_interval_ms;
                if replay_high.len() <= s {
                    replay_high.resize(s + 1, 0);
                }
                let last = replay_high[s];
                if lb.timestamp > last + interval {
                    pl.clock_jumps[s].push_back((last, lb.timestamp - interval));
                }
                replay_high[s] = replay_high[s].max(lb.timestamp);
                let batch = Batch::sealed(StreamId(lb.stream), lb.timestamp, lb.tuples, 0);
                report.replayed_batches += 1;
                report.replayed_batch_ids.push(batch.id());
                engine.enqueue_batch(&mut pl, batch);
                // Drain after *every* replayed batch, not once per
                // checkpoint: the log preserves ingestion order, and
                // draining in that order retires the SN-VTS plan's
                // epochs along the exact trajectory of the original run
                // — which is what keeps every batch's (and therefore
                // every window's) snapshot assignment identical across
                // the crash (DESIGN.md §13).
                engine.drain_pending(&mut pl);
            }
        }
        // Adaptors resume strictly after the replayed batches.
        {
            let mut pl = engine.pipeline.lock();
            let stable = pl.coordinator.stable_vts().clone();
            for (i, a) in pl.adaptors.iter_mut().enumerate() {
                a.fast_forward(stable.get(i));
            }
        }
        // Windows resume at the *checkpointed* stable VTS, not the
        // replayed one: the window at the horizon may re-fire
        // (at-least-once, §5), and every window the crash or an outage
        // delayed fires on the next `fire_ready()`.
        let replayed = engine.pipeline.lock().coordinator.stable_vts().clone();
        let mut resume = cp_stable.unwrap_or_else(|| Vts::new(replayed.len()));
        resume.grow(replayed.len());
        for r in engine.registry.read().iter() {
            r.window.lock().catch_up(&resume);
        }

        let counters = engine.cluster.obs().faults();
        report.dedup_suppressed = before.delta(&counters.snapshot()).dedup_suppressed;
        report.restored_stable_sn = engine.stable_sn().0;
        counters.recoveries(1);
        counters.replayed_batches(report.replayed_batches);
        let ns = t0.elapsed().as_nanos() as u64;
        report.recovery_ms = ns as f64 / 1e6;
        engine
            .cluster
            .obs()
            .record_stream_stage("recovery", Stage::Recovery, ns);
        drop(recovery_span);
        Ok((engine, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wukong_rdf::{ntriples, StreamTuple, Vid};

    fn engine_with_stream() -> (WukongS, StreamId) {
        let engine = WukongS::new(EngineConfig::single_node());
        let ss = engine.strings();
        engine.load_base(ntriples::parse_document(ss, "Logan fo Erik\n").expect("parses"));
        let s = engine.register_stream(StreamSchema::timeless(StreamId(9), "PO", 100));
        // The engine assigns stream IDs itself.
        assert_eq!(s, StreamId(0));
        (engine, s)
    }

    #[test]
    fn register_rejects_wrong_kinds() {
        let (engine, _) = engine_with_stream();
        // One-shot text on the continuous path.
        assert!(matches!(
            engine.register_continuous("SELECT ?X WHERE { Logan fo ?X }"),
            Err(QueryError::Unsupported(_))
        ));
        // Continuous text on the one-shot path.
        assert!(matches!(
            engine.one_shot(
                "REGISTER QUERY q SELECT ?X FROM PO [RANGE 1s STEP 1s] \
                 WHERE { GRAPH PO { ?X po ?Z } }"
            ),
            Err(QueryError::Unsupported(_))
        ));
        // Continuous query over an unregistered stream.
        assert!(matches!(
            engine.register_continuous(
                "REGISTER QUERY q SELECT ?X FROM Nope [RANGE 1s STEP 1s] \
                 WHERE { GRAPH Nope { ?X po ?Z } }"
            ),
            Err(QueryError::Unresolved(_))
        ));
        // A continuous query must read at least one stream.
        assert!(matches!(
            engine.register_continuous(
                "REGISTER QUERY q SELECT ?X FROM PO [RANGE 1s STEP 1s] \
                 WHERE { Logan fo ?X }"
            ),
            Err(QueryError::Unsupported(_))
        ));
    }

    #[test]
    fn raw_bytes_sum_textual_name_lengths() {
        // Table 7's raw-data figure: per tuple, the three names' lengths
        // (8 for an ID with no name), three IRI prefixes and the framing.
        let (engine, po) = engine_with_stream();
        let ss = engine.strings().clone();
        let mut tuples = vec![
            ntriples::parse_tuple(&ss, "Logan po T-15 10", 1).expect("tuple"),
            ntriples::parse_tuple(&ss, "Erik po T-7 20", 1).expect("tuple"),
        ];
        let po_pid = ss.predicate_id("po").expect("interned");
        tuples.push(StreamTuple::timeless(
            Triple::new(Vid(900_001), po_pid, Vid(900_002)),
            30,
        ));
        for t in &tuples {
            engine.ingest(po, t.triple, t.timestamp);
        }
        engine.advance_time(500);
        let name = |r: Result<String, _>| r.map(|s| s.len() as u64).unwrap_or(8);
        let expect: u64 = tuples
            .iter()
            .map(|t| {
                name(ss.entity_name(t.triple.s))
                    + name(ss.predicate_name(t.triple.p))
                    + name(ss.entity_name(t.triple.o))
                    + 3 * 30
                    + 24
            })
            .sum();
        assert_eq!(expect, (5 + 2 + 4) + (4 + 2 + 3) + (8 + 2 + 8) + 3 * 114);
        assert_eq!(engine.stats().raw_stream_bytes as u64, expect);
    }

    #[test]
    fn dynamic_stream_registration_mid_flight() {
        let (engine, po) = engine_with_stream();
        let ss = engine.strings().clone();
        let t = ntriples::parse_tuple(&ss, "Logan po T-1 50", 1).expect("tuple");
        engine.ingest(po, t.triple, t.timestamp);
        engine.advance_time(500);
        assert_eq!(engine.stable_ts(po), 500);

        // Register a second stream while the first is live (§4.3: "very
        // flexible to handle dynamic streams").
        let li = engine.register_stream(StreamSchema::timeless(StreamId(0), "LI", 100));
        assert_eq!(li, StreamId(1));
        let t = ntriples::parse_tuple(&ss, "Erik li T-1 550", 1).expect("tuple");
        engine.ingest(li, t.triple, t.timestamp);
        engine.advance_time(1_000);
        assert_eq!(engine.stable_ts(po), 1_000);
        assert_eq!(engine.stable_ts(li), 1_000);

        // A query joining both streams works.
        let id = engine
            .register_continuous(
                "REGISTER QUERY q SELECT ?X ?Y ?Z \
                 FROM PO [RANGE 2s STEP 100ms] FROM LI [RANGE 2s STEP 100ms] \
                 WHERE { GRAPH PO { ?X po ?Z } . GRAPH LI { ?Y li ?Z } }",
            )
            .expect("register");
        let (rs, _) = engine.execute_registered(id);
        assert_eq!(rs.rows.len(), 1);
    }

    #[test]
    fn fire_ready_catches_up_all_pending_windows() {
        let (engine, po) = engine_with_stream();
        let ss = engine.strings().clone();
        engine
            .register_continuous(
                "REGISTER QUERY q SELECT ?Z FROM PO [RANGE 1s STEP 200ms] \
                 WHERE { GRAPH PO { Logan po ?Z } }",
            )
            .expect("register");
        let t = ntriples::parse_tuple(&ss, "Logan po T-1 100", 1).expect("tuple");
        engine.ingest(po, t.triple, t.timestamp);
        engine.advance_time(1_000);
        // 5 step-200ms windows became ready in one advance.
        let firings = engine.fire_ready();
        assert_eq!(firings.len(), 5);
        assert!(firings.iter().all(|f| f.results.rows.len() == 1));
        // Nothing left to fire until time advances again.
        assert!(engine.fire_ready().is_empty());
    }

    #[test]
    fn construct_feeds_a_derived_stream() {
        // Pipeline: raw posts → CONSTRUCT "influences" edges → a second
        // continuous query consumes the derived stream.
        let (engine, po) = engine_with_stream();
        let ss = engine.strings().clone();
        let derived = engine.register_stream(StreamSchema::timeless(StreamId(0), "Derived", 100));

        engine
            .register_construct(
                "REGISTER QUERY build SELECT ?X                  CONSTRUCT { Erik influences ?X }                  FROM PO [RANGE 1s STEP 100ms]                  WHERE { GRAPH PO { ?X po ?Z } . ?X fo Erik }",
                derived,
            )
            .expect_err("CONSTRUCT replaces SELECT");
        let cid = engine
            .register_construct(
                "REGISTER QUERY build                  CONSTRUCT { Erik influences ?X }                  FROM PO [RANGE 1s STEP 100ms]                  WHERE { GRAPH PO { ?X po ?Z } . ?X fo Erik }",
                derived,
            )
            .expect("construct registers");
        let did = engine
            .register_continuous(
                "REGISTER QUERY consume SELECT ?W                  FROM Derived [RANGE 5s STEP 100ms]                  WHERE { GRAPH Derived { Erik influences ?W } }",
            )
            .expect("consumer registers");

        // Logan follows Erik and posts; the pipeline derives
        // ⟨Erik influences Logan⟩.
        let t = ntriples::parse_tuple(&ss, "Logan po T-1 50", 1).expect("tuple");
        engine.ingest(po, t.triple, t.timestamp);
        engine.advance_time(200);
        let firings = engine.fire_ready();
        assert!(firings
            .iter()
            .any(|f| f.query == cid && !f.results.is_empty()));

        // The derived tuple becomes visible after its batch stabilises.
        engine.advance_time(400);
        let (rs, _) = engine.execute_registered(did);
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(ss.entity_name(rs.rows[0][0]).unwrap(), "Logan");

        // Constructed data is also absorbed into the stored graph.
        let (rs, _) = engine
            .one_shot("SELECT ?W WHERE { Erik influences ?W }")
            .expect("runs");
        assert_eq!(rs.rows.len(), 1);

        // Targeting an unregistered stream fails.
        assert!(engine
            .register_construct(
                "REGISTER QUERY x CONSTRUCT { a b ?X } FROM PO [RANGE 1s STEP 1s]                  WHERE { GRAPH PO { ?X po ?Z } }",
                StreamId(99),
            )
            .is_err());
    }

    #[test]
    fn unregister_stops_firing_and_releases_subscriptions() {
        let (engine, po) = engine_with_stream();
        let ss = engine.strings().clone();
        let q = "REGISTER QUERY q SELECT ?Z FROM PO [RANGE 1s STEP 100ms]                  WHERE { GRAPH PO { Logan po ?Z } }";
        let id = engine.register_continuous(q).expect("register");
        assert_eq!(engine.continuous_count(), 1);
        assert!(!engine.cluster().stream(0).subscribers.read().is_empty());

        let t = ntriples::parse_tuple(&ss, "Logan po T-1 50", 1).expect("tuple");
        engine.ingest(po, t.triple, t.timestamp);
        engine.advance_time(500);
        assert!(!engine.fire_ready().is_empty());

        engine.unregister_continuous(id);
        assert_eq!(engine.continuous_count(), 0);
        assert!(engine.cluster().stream(0).subscribers.read().is_empty());
        engine.advance_time(1_000);
        assert!(engine.fire_ready().is_empty(), "retired queries never fire");
        let (rs, _) = engine.execute_registered(id);
        assert!(rs.is_empty());

        // Checkpoints no longer persist it.
        let cp = crate::checkpoint::Checkpoint::decode(&engine.checkpoint()).expect("decodes");
        assert!(cp.queries.is_empty());

        // Re-registering works and fires again.
        let id2 = engine.register_continuous(q).expect("register");
        let t = ntriples::parse_tuple(&ss, "Logan po T-2 1050", 1).expect("tuple");
        engine.ingest(po, t.triple, t.timestamp);
        engine.advance_time(2_000);
        let firings = engine.fire_ready();
        assert!(firings
            .iter()
            .any(|f| f.query == id2 && !f.results.is_empty()));
    }

    #[test]
    fn windowed_one_shot_reads_current_window() {
        // The time-scoped one-shot of footnote 10: run once over the
        // stream's current window.
        let (engine, po) = engine_with_stream();
        let ss = engine.strings().clone();
        for (name, ts) in [("T-1", 50u64), ("T-2", 950)] {
            let t = ntriples::parse_tuple(&ss, &format!("Logan po {name} {ts}"), 1).expect("tuple");
            engine.ingest(po, t.triple, t.timestamp);
        }
        engine.advance_time(1_000);

        // A 500 ms window at the stable VTS (1000) sees only T-2.
        let (rs, _) = engine
            .one_shot(
                "SELECT ?Z FROM PO [RANGE 500ms STEP 500ms]                  WHERE { GRAPH PO { Logan po ?Z } }",
            )
            .expect("windowed one-shot runs");
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(ss.entity_name(rs.rows[0][0]).unwrap(), "T-2");

        // A GRAPH clause naming an unwindowed graph falls back to the
        // stored graph (parser semantics), where both absorbed posts are
        // visible — same as the plain stored-graph one-shot.
        let (rs, _) = engine
            .one_shot("SELECT ?Z WHERE { GRAPH PO { Logan po ?Z } }")
            .expect("runs over the stored graph");
        assert_eq!(rs.rows.len(), 2);
        let (rs, _) = engine
            .one_shot("SELECT ?Z WHERE { Logan po ?Z }")
            .expect("runs");
        assert_eq!(rs.rows.len(), 2);
    }

    #[test]
    fn stats_reflect_activity() {
        let (engine, po) = engine_with_stream();
        let ss = engine.strings().clone();
        let before = engine.stats();
        assert_eq!(before.streams, 1);
        assert_eq!(before.nodes, 1);
        let t = ntriples::parse_tuple(&ss, "Logan po T-1 50", 1).expect("tuple");
        engine.ingest(po, t.triple, t.timestamp);
        engine.advance_time(500);
        let after = engine.stats();
        assert!(after.stored_triples > before.stored_triples);
        assert!(after.batches_processed >= 5);
        assert!(after.raw_stream_bytes > 0);
        assert!(after.stable_sn > before.stable_sn);
    }

    #[test]
    fn overload_sheds_marks_firings_and_catches_up() {
        let mut cfg = EngineConfig::single_node()
            .with_ingest_budget(Some(wukong_stream::IngestBudget::tuples(8)));
        // Keep the wall-clock latency trip out of this test: only the
        // deterministic queue-overflow path should drive the states.
        cfg.overload.latency_budget_ms = 1e9;
        let engine = WukongS::new(cfg);
        let ss = engine.strings().clone();
        let po = engine.register_stream(StreamSchema::timeless(StreamId(0), "PO", 100));
        engine
            .register_continuous(
                "REGISTER QUERY q SELECT ?X FROM PO [RANGE 1s STEP 200ms] \
                 WHERE { GRAPH PO { ?X po ?Z } }",
            )
            .expect("register");

        // A 20-tuple burst lands in one 100 ms interval — 2.5× budget.
        for i in 0..20u64 {
            let t = ntriples::parse_tuple(&ss, &format!("u{i} po T-{i} {}", 110 + i), 1)
                .expect("tuple");
            engine.ingest(po, t.triple, t.timestamp);
        }
        engine.advance_time(1_000);
        // Liveness: the VTS advanced right through the overload.
        assert_eq!(engine.stable_ts(po), 1_000);
        assert_eq!(engine.overload_state(), OverloadState::Shedding);
        assert_eq!(engine.total_shed(), 20, "drop-oldest empties the burst");
        assert_eq!(engine.shed_outstanding(), 20);

        // Exact staleness: every firing whose window covers the shed
        // batch carries the precise marker.
        let firings = engine.fire_ready();
        assert!(!firings.is_empty());
        let degraded: Vec<_> = firings.iter().filter_map(|f| f.results.degraded).collect();
        assert_eq!(degraded.len(), firings.len());
        assert!(degraded
            .iter()
            .all(|d| d.tuples_shed == 20 && d.windows_affected == 1));

        // Admission control: one-shots are rejected while shedding.
        assert!(matches!(
            engine.one_shot("SELECT ?X WHERE { ?X po T-0 }"),
            Err(QueryError::Overloaded(_))
        ));

        // The quiet period passes → catch-up replays the shed suffix.
        engine.advance_time(2_400);
        assert_eq!(engine.overload_state(), OverloadState::Normal);
        assert_eq!(engine.shed_outstanding(), 0);
        assert_eq!(engine.shed_log().len(), 1, "the log is append-only");
        let (rs, _) = engine
            .one_shot("SELECT ?X WHERE { ?X po T-7 }")
            .expect("admitted again after catch-up");
        assert_eq!(rs.rows.len(), 1, "the replayed tuple is in the store");

        // Post-catch-up firings are whole again: no markers.
        let firings = engine.fire_ready();
        assert!(!firings.is_empty());
        assert!(firings.iter().all(|f| f.results.degraded.is_none()));

        let snap = engine.handle().obs().overload().snapshot();
        assert_eq!(snap.tuples_shed, 20);
        assert_eq!(snap.catchup_replayed_tuples, 20);
        assert_eq!(snap.catchup_replays, 1);
        assert!(snap.admission_rejected >= 1);
        // Normal→Shedding, Shedding→CatchUp, CatchUp→Normal.
        assert_eq!(snap.state_transitions, 3);
    }

    #[test]
    fn unbounded_engine_never_sheds_or_rejects() {
        // No budget ⇒ the whole overload subsystem is inert: this is the
        // byte-identity guarantee for every pre-existing workload.
        let (engine, po) = engine_with_stream();
        let ss = engine.strings().clone();
        for i in 0..200u64 {
            let t = ntriples::parse_tuple(&ss, &format!("u{i} po T-{i} {}", 110 + i), 1)
                .expect("tuple");
            engine.ingest(po, t.triple, t.timestamp);
        }
        engine.advance_time(1_000);
        assert_eq!(engine.overload_state(), OverloadState::Normal);
        assert_eq!(engine.total_shed(), 0);
        assert!(engine.shed_log().is_empty());
        assert!(engine.one_shot("SELECT ?X WHERE { ?X po T-0 }").is_ok());
        let snap = engine.handle().obs().overload().snapshot();
        assert_eq!(snap, Default::default());
    }

    #[test]
    fn quiet_streams_do_not_block_visibility() {
        // Two streams; only one ever produces tuples. Heartbeats must
        // keep the silent stream's VTS advancing so batches of the busy
        // stream become stable (the injector-stall scenario of Fig. 11).
        let engine = WukongS::new(EngineConfig::single_node());
        let ss = engine.strings().clone();
        let po = engine.register_stream(StreamSchema::timeless(StreamId(0), "PO", 100));
        let _li = engine.register_stream(StreamSchema::timeless(StreamId(0), "LI", 100));
        for i in 0..20u64 {
            let t = ntriples::parse_tuple(&ss, &format!("u{i} po T-{i} {}", i * 100 + 50), 1)
                .expect("tuple");
            engine.ingest(po, t.triple, t.timestamp);
        }
        engine.advance_time(2_000);
        assert_eq!(engine.stable_ts(po), 2_000);
        assert!(engine.stable_sn().0 >= 19);
    }

    #[test]
    fn one_shot_plans_come_from_the_cache_under_adaptive() {
        let engine = WukongS::new(EngineConfig::single_node().with_adaptive(true));
        let ss = engine.strings();
        engine.load_base(ntriples::parse_document(ss, "Logan fo Erik\n").expect("parses"));
        let (a, _) = engine.one_shot("SELECT ?X WHERE { Logan fo ?X }").unwrap();
        // Same text, different whitespace: one plan, one cache hit.
        let (b, _) = engine
            .one_shot("SELECT ?X  WHERE  { Logan fo ?X }")
            .unwrap();
        assert_eq!(a.rows, b.rows);
        assert_eq!(engine.plan_cache().misses(), 1);
        assert_eq!(engine.plan_cache().hits(), 1);
        let snap = engine.handle().obs().plan().snapshot();
        assert_eq!(snap.cache_hits, 1);
        assert_eq!(snap.cache_misses, 1);

        // A static engine never touches the cache.
        let control = WukongS::new(EngineConfig::single_node());
        let ss = control.strings();
        control.load_base(ntriples::parse_document(ss, "Logan fo Erik\n").expect("parses"));
        let (c, _) = control.one_shot("SELECT ?X WHERE { Logan fo ?X }").unwrap();
        assert_eq!(a.rows, c.rows);
        assert!(control.plan_cache().is_empty());
    }

    #[test]
    fn stats_epoch_advances_with_batch_processing() {
        let (engine, po) = engine_with_stream();
        let ss = engine.strings().clone();
        assert_eq!(engine.stats_epoch(), 0);
        // One sealed batch per 100 ms interval; 32 batches bump once.
        for i in 0..STATS_EPOCH_BATCHES {
            let t = ntriples::parse_tuple(&ss, &format!("u{i} po T-{i} {}", i * 100 + 50), 1)
                .expect("tuple");
            engine.ingest(po, t.triple, t.timestamp);
        }
        engine.advance_time(STATS_EPOCH_BATCHES * 100);
        assert_eq!(engine.stats_epoch(), 1);
    }

    /// Drives the drifted-selectivity scenario: the plan is derived when
    /// the anchor matches one tuple per window, then the anchor's
    /// fan-out explodes. Returns every firing's sorted rows.
    fn drift_workload(cfg: EngineConfig) -> (WukongS, Vec<Vec<Vec<wukong_rdf::Vid>>>) {
        let engine = WukongS::new(cfg);
        let ss = engine.strings().clone();
        let po = engine.register_stream(StreamSchema::timeless(StreamId(0), "PO", 100));
        engine
            .register_continuous(
                "REGISTER QUERY q SELECT ?Z FROM PO [RANGE 300ms STEP 100ms] \
                 WHERE { GRAPH PO { Logan po ?Z } }",
            )
            .expect("register");
        let mut fired = Vec::new();
        for round in 0..8u64 {
            let n = if round == 0 { 1 } else { 40 };
            for k in 0..n {
                let line = format!("Logan po T-{round}-{k} {}", round * 100 + 50);
                let t = ntriples::parse_tuple(&ss, &line, 1).expect("tuple");
                engine.ingest(po, t.triple, t.timestamp);
            }
            engine.advance_time((round + 1) * 100);
            for f in engine.fire_ready() {
                let mut rows = f.results.rows.clone();
                rows.sort();
                fired.push(rows);
            }
        }
        (engine, fired)
    }

    #[test]
    fn drift_trips_a_replan_without_changing_any_firing() {
        let (adaptive, fired_a) = drift_workload(EngineConfig::single_node().with_adaptive(true));
        let (static_, fired_s) = drift_workload(EngineConfig::single_node());
        // Identical firing sequence — re-planning is result-transparent.
        assert_eq!(fired_a, fired_s);
        assert!(!fired_a.is_empty());

        let snap = adaptive.handle().obs().plan().snapshot();
        // The 40×-per-window regime vs the estimate frozen at one tuple
        // drifts every firing after the first; three consecutive trips.
        assert!(snap.feedback_firings > 0, "feedback observed: {snap:?}");
        assert!(snap.drifted_firings >= 3, "drift detected: {snap:?}");
        assert!(snap.replans >= 1, "detector tripped: {snap:?}");
        // The static engine's adaptive counters stay silent (only the
        // unconditional modeled-work metric accumulates).
        let control = static_.handle().obs().plan().snapshot();
        assert_eq!(control.replans, 0);
        assert_eq!(control.feedback_firings, 0);
        assert_eq!(control.cache_hits + control.cache_misses, 0);
        assert!(control.edges_traversed > 0);
    }

    #[test]
    fn force_replan_is_transparent_and_rebuilds_delta_state() {
        // Maintained query (incremental on): force a mid-stream plan
        // switch and compare every subsequent firing against a control
        // engine that never re-plans.
        let run = |replan_at: Option<u64>| {
            let engine = WukongS::new(EngineConfig::single_node().with_incremental(true));
            let ss = engine.strings().clone();
            let po = engine.register_stream(StreamSchema::timeless(StreamId(0), "PO", 100));
            let id = engine
                .register_continuous(
                    "REGISTER QUERY q SELECT ?Z FROM PO [RANGE 300ms STEP 100ms] \
                     WHERE { GRAPH PO { Logan po ?Z } }",
                )
                .expect("register");
            let mut fired = Vec::new();
            for round in 0..6u64 {
                for k in 0..3u64 {
                    let line = format!("Logan po T-{round}-{k} {}", round * 100 + 50);
                    let t = ntriples::parse_tuple(&ss, &line, 1).expect("tuple");
                    engine.ingest(po, t.triple, t.timestamp);
                }
                engine.advance_time((round + 1) * 100);
                if replan_at == Some(round) {
                    engine.force_replan(id);
                }
                for f in engine.fire_ready() {
                    let mut rows = f.results.rows.clone();
                    rows.sort();
                    fired.push((f.window_end, rows));
                }
            }
            (engine, fired)
        };
        let (engine, with_switch) = run(Some(3));
        let (_, control) = run(None);
        assert_eq!(with_switch, control);
        let snap = engine.handle().obs().plan().snapshot();
        assert_eq!(snap.replans, 1);
        assert_eq!(snap.delta_rebuilds, 1, "retained state dropped: {snap:?}");
    }
}
