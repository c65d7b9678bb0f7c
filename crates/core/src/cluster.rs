//! The cluster: store shards, per-stream state, and the fabric.
//!
//! One [`Cluster`] models the whole deployment inside one process. Each
//! node owns a [`PersistentShard`]; each registered stream owns, per node,
//! a transient ring (timing data lives with the owner of its keys) and a
//! stream index keyed by *origin* node.
//!
//! A note on replication: because every simulated node shares the process
//! address space, stream-index replicas are not physically copied — one
//! canonical index per `(stream, origin)` pair serves all readers. What
//! locality-aware partitioning (§4.2) actually changes is *cost*: with
//! replication on, injection charges one fabric message per subscriber and
//! queries read the index locally (one RDMA read for remote values); with
//! it off, queries on non-owner nodes charge the extra index read the
//! paper describes ("the partitioned stream index would incur an
//! additional RDMA read"). Memory accounting multiplies index bytes by the
//! replica count, so Table 7 reflects real replication cost.

use crate::config::{EngineConfig, RpcPolicy};
use parking_lot::RwLock;
use std::collections::HashSet;
use std::sync::Arc;
use wukong_net::{Fabric, NodeId, TaskTimer, WorkerPool};
use wukong_rdf::{Key, StringServer, Triple, Vid};
use wukong_store::{PersistentShard, ShardMap, SnapshotId, StreamIndex, TransientStore};
use wukong_stream::StreamSchema;

/// Per-stream cluster state.
///
/// The per-node vectors are guarded by per-node locks, so parallel
/// ingest tasks — each confined to one node by its owner filter — never
/// contend on (or even share) a lock: task `m` writes only
/// `transients[m]` and `indexes[m]`.
pub struct StreamState {
    /// The stream's schema (batch interval, timing predicates, …).
    pub schema: StreamSchema,
    /// Timing data per owner node.
    pub transients: Vec<RwLock<TransientStore>>,
    /// Stream index per *origin* node: `indexes[m]` holds the entries for
    /// appends that happened on node `m`'s shard.
    pub indexes: Vec<RwLock<StreamIndex>>,
    /// Nodes that registered continuous queries over this stream —
    /// replication targets under locality-aware partitioning.
    pub subscribers: RwLock<HashSet<u16>>,
    /// Raw stream bytes received so far (Table 7 accounting).
    pub raw_bytes: RwLock<u64>,
    /// Cumulative GC sweep results across nodes.
    pub gc_stats: RwLock<wukong_store::gc::GcStats>,
}

impl StreamState {
    fn new(schema: StreamSchema, nodes: usize, transient_budget: usize) -> Self {
        StreamState {
            schema,
            transients: (0..nodes)
                .map(|_| RwLock::new(TransientStore::new(transient_budget)))
                .collect(),
            indexes: (0..nodes)
                .map(|_| RwLock::new(StreamIndex::new()))
                .collect(),
            subscribers: RwLock::new(HashSet::new()),
            raw_bytes: RwLock::new(0),
            gc_stats: RwLock::new(Default::default()),
        }
    }

    /// Heap bytes of one copy of this stream's index (all origins).
    pub fn index_bytes(&self) -> usize {
        self.indexes.iter().map(|i| i.read().heap_bytes()).sum()
    }

    /// Heap bytes of the timing rings across nodes.
    pub fn transient_bytes(&self) -> usize {
        self.transients.iter().map(|t| t.read().used_bytes()).sum()
    }
}

/// All shared state of a Wukong+S deployment.
pub struct Cluster {
    shards: Vec<PersistentShard>,
    shard_map: ShardMap,
    fabric: Fabric,
    strings: Arc<StringServer>,
    streams: RwLock<Vec<Arc<StreamState>>>,
    transient_budget: usize,
    /// Whether stream indexes replicate to subscriber nodes (§4.2).
    pub replicate_indexes: bool,
    obs: Arc<wukong_obs::Registry>,
    rpc: RpcPolicy,
    /// One worker pool per node (query firings, fork-join partitions,
    /// ingest application). All pools record into the registry's shared
    /// pool counters.
    pools: Vec<WorkerPool>,
}

/// A cheap, cloneable handle onto a deployment's shared observability
/// surfaces: the staged-latency [`Registry`](wukong_obs::Registry) and
/// the fabric operation counters. Benchmarks hold one of these across an
/// experiment and diff snapshots around the measured interval.
#[derive(Clone)]
pub struct ClusterHandle {
    cluster: Arc<Cluster>,
}

impl ClusterHandle {
    /// Wraps a shared cluster.
    pub fn new(cluster: Arc<Cluster>) -> Self {
        ClusterHandle { cluster }
    }

    /// The staged-latency registry.
    pub fn obs(&self) -> &Arc<wukong_obs::Registry> {
        self.cluster.obs()
    }

    /// Point-in-time copy of every stage/latency series.
    pub fn obs_snapshot(&self) -> wukong_obs::RegistrySnapshot {
        self.cluster.obs().snapshot()
    }

    /// Point-in-time copy of the fabric operation counters.
    pub fn fabric_metrics(&self) -> wukong_net::MetricsSnapshot {
        self.cluster.fabric().metrics()
    }

    /// Point-in-time copy of the fault/recovery counters.
    pub fn fault_counters(&self) -> wukong_obs::FaultSnapshot {
        self.cluster.obs().faults().snapshot()
    }

    /// The always-on flight recorder (causal span events, black-box
    /// dumps). Benchmarks snapshot it after a run to serialise traces.
    pub fn trace(&self) -> &Arc<wukong_obs::TraceRecorder> {
        self.cluster.obs().trace()
    }

    /// Point-in-time copy of the flight recorder: merged events, firing
    /// lineage metadata, and any anomaly dumps captured so far.
    pub fn trace_snapshot(&self) -> wukong_obs::TraceSnapshot {
        self.cluster.obs().trace().snapshot()
    }
}

impl Cluster {
    /// Builds the cluster for `config`.
    pub fn new(config: &EngineConfig) -> Self {
        Self::new_with_strings(config, Arc::new(StringServer::new()))
    }

    /// Builds the cluster sharing an existing string server (recovery: the
    /// ID mapping is part of the reloaded initial data, §4.1).
    pub fn new_with_strings(config: &EngineConfig, strings: Arc<StringServer>) -> Self {
        let obs = Arc::new(wukong_obs::Registry::new());
        let mut fabric = Fabric::new(config.nodes, config.network);
        if let Some(plan) = &config.fault_plan {
            fabric.install_faults(plan.clone(), Arc::clone(obs.faults()));
        }
        let pools = (0..config.nodes)
            .map(|_| WorkerPool::new(config.worker_threads, Arc::clone(obs.pool())))
            .collect();
        Cluster {
            shards: (0..config.nodes)
                .map(|_| PersistentShard::new(config.partitions_per_shard))
                .collect(),
            shard_map: ShardMap::new(config.nodes as u16),
            fabric,
            strings,
            streams: RwLock::new(Vec::new()),
            transient_budget: config.transient_budget_bytes,
            replicate_indexes: config.replicate_stream_indexes,
            obs,
            rpc: config.rpc,
            pools,
        }
    }

    /// The fork-join RPC deadline/retry policy.
    pub fn rpc_policy(&self) -> RpcPolicy {
        self.rpc
    }

    /// The observability registry (staged latency histograms).
    pub fn obs(&self) -> &Arc<wukong_obs::Registry> {
        &self.obs
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.shards.len()
    }

    /// The shared string server.
    pub fn strings(&self) -> &Arc<StringServer> {
        &self.strings
    }

    /// The vertex → node shard map.
    pub fn shard_map(&self) -> &ShardMap {
        &self.shard_map
    }

    /// The fabric (for metrics and cost charging).
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// A node's shard.
    pub fn shard(&self, node: u16) -> &PersistentShard {
        &self.shards[node as usize]
    }

    /// A node's worker pool.
    pub fn pool(&self, node: NodeId) -> &WorkerPool {
        &self.pools[node.idx()]
    }

    /// The owner node of `key`.
    pub fn owner(&self, key: Key) -> NodeId {
        NodeId(self.shard_map.node_of_key(key))
    }

    /// Loads one triple of the initial dataset, routing each of its key
    /// updates to the owning node's shard (no key is stored twice).
    pub fn load_base_triple(&self, t: Triple) {
        use wukong_rdf::Dir;
        use wukong_store::SnapshotId as SN;
        let sn = SN::BASE;
        let out_key = t.out_key();
        let owner_out = self.shard_map.node_of_key(out_key) as usize;
        self.shards[owner_out].count_triple();
        let (_, first_out) = self.shards[owner_out].append_owned(out_key, t.o, sn, None);
        if first_out {
            let k = Key::index(t.p, Dir::Out);
            self.shards[self.shard_map.node_of_key(k) as usize].append_owned(k, t.s, sn, None);
        }
        let in_key = t.in_key();
        let (_, first_in) = self.shards[self.shard_map.node_of_key(in_key) as usize]
            .append_owned(in_key, t.s, sn, None);
        if first_in {
            let k = Key::index(t.p, Dir::In);
            self.shards[self.shard_map.node_of_key(k) as usize].append_owned(k, t.o, sn, None);
        }
    }

    /// Registers a stream, returning its cluster-wide index.
    pub fn add_stream(&self, schema: StreamSchema) -> usize {
        let mut streams = self.streams.write();
        let idx = streams.len();
        streams.push(Arc::new(StreamState::new(
            schema,
            self.nodes(),
            self.transient_budget,
        )));
        idx
    }

    /// The state of stream `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is not a registered stream.
    pub fn stream(&self, idx: usize) -> Arc<StreamState> {
        Arc::clone(&self.streams.read()[idx])
    }

    /// Number of registered streams.
    pub fn stream_count(&self) -> usize {
        self.streams.read().len()
    }

    /// Snapshot of all stream states.
    pub fn streams(&self) -> Vec<Arc<StreamState>> {
        self.streams.read().clone()
    }

    /// Reads the stored-graph neighbours of `key` at `sn` for a task on
    /// `home`, charging remote access as two one-sided reads (key lookup +
    /// value read, §5).
    pub fn stored_neighbors(
        &self,
        home: NodeId,
        key: Key,
        sn: SnapshotId,
        timer: &mut TaskTimer,
        out: &mut Vec<Vid>,
    ) {
        let owner = self.owner(key);
        let before = out.len();
        self.shards[owner.idx()].for_each_neighbor(key, sn, |v| out.push(v));
        if owner != home {
            let bytes = (out.len() - before) * std::mem::size_of::<Vid>();
            // Lookup read (key + fat pointer) …
            self.fabric.charge_read(home, owner, 24, timer);
            // … then the value read.
            self.fabric.charge_read(home, owner, bytes.max(8), timer);
        }
    }

    /// Stored-graph cardinality of `key` at `sn` (planner oracle — metadata
    /// lookups are not charged).
    pub fn stored_len(&self, key: Key, sn: SnapshotId) -> usize {
        self.shards[self.owner(key).idx()].len_at(key, sn)
    }

    /// Reads the streaming-data neighbours of `key` for stream `stream_idx`
    /// within `[lo, hi]`: timeless tuples through the stream index,
    /// timing tuples from the transient ring.
    ///
    /// With index replication the index itself is local; only remote
    /// *values* cost a read. Without replication, a non-owner node charges
    /// an additional read for the index lookup (§4.2).
    #[allow(clippy::too_many_arguments)]
    pub fn stream_neighbors(
        &self,
        home: NodeId,
        stream_idx: usize,
        key: Key,
        lo: u64,
        hi: u64,
        timer: &mut TaskTimer,
        out: &mut Vec<Vid>,
    ) {
        let stream = self.stream(stream_idx);
        let owner = self.owner(key);
        let remote = owner != home;

        if remote && !self.replicate_indexes {
            // The index lives only with the owner: one extra read.
            self.fabric.charge_read(home, owner, 24, timer);
        }

        if key.is_index() {
            // Window index-vertex scan: enumerate the vertices whose
            // `[v|p|d]` keys were touched by in-window batches, across
            // every origin's index (a window's actors shard over the
            // whole cluster). The indexes are locally replicated, so the
            // scan itself costs no fabric reads; vertices whose first
            // `p`-edge predates the window are still found because every
            // append touches the vertex's own key.
            for index in &stream.indexes {
                index.read().vertices_in(key.pid(), key.dir(), lo, hi, out);
            }
        } else {
            // Timeless: stream index → fat pointers → persistent values.
            let before = out.len();
            {
                let index = stream.indexes[owner.idx()].read();
                self.shards[owner.idx()].read_postings(
                    key,
                    index.postings_in(key, lo, hi),
                    |_, s| out.extend_from_slice(s),
                );
            }
            if remote && out.len() > before {
                let bytes = (out.len() - before) * std::mem::size_of::<Vid>();
                self.fabric.charge_read(home, owner, bytes, timer);
            }
        }

        // Timing: transient ring on the owner (index keys included — the
        // per-slice predicate index lives with the index key's owner). A
        // ring with no entries — every stream without timing predicates —
        // is skipped rather than probed slice by slice.
        let before = out.len();
        {
            let transient = stream.transients[owner.idx()].read();
            if transient.has_entries() {
                transient.for_each_slice_in(lo, hi, |s| out.extend_from_slice(s.neighbors(key)));
            }
        }
        if remote && out.len() > before {
            let bytes = (out.len() - before) * std::mem::size_of::<Vid>();
            self.fabric.charge_read(home, owner, bytes, timer);
        }
    }

    /// Reads the streaming-data neighbours of `key` within `[lo, hi]`
    /// *with* each edge's contributing batch timestamp, for the
    /// delta-maintenance path: the tag is what lets a maintained firing
    /// later retract exactly the rows whose support expired. Costs are
    /// charged like [`Cluster::stream_neighbors`] — the timestamps ride
    /// along with index metadata that is already replicated (or already
    /// paid for by the extra index read without replication), so no
    /// additional fabric traffic is modelled.
    ///
    /// Index keys are not supported: the incremental executor enumerates
    /// index subjects untimed and tags only their expansion edges.
    #[allow(clippy::too_many_arguments)]
    pub fn stream_neighbors_timed(
        &self,
        home: NodeId,
        stream_idx: usize,
        key: Key,
        lo: u64,
        hi: u64,
        timer: &mut TaskTimer,
        out: &mut Vec<(Vid, wukong_rdf::Timestamp)>,
    ) {
        debug_assert!(
            !key.is_index(),
            "timed scans enumerate edges, not index vertices"
        );
        let stream = self.stream(stream_idx);
        let owner = self.owner(key);
        let remote = owner != home;

        if remote && !self.replicate_indexes {
            // The index lives only with the owner: one extra read.
            self.fabric.charge_read(home, owner, 24, timer);
        }

        // Timeless: stream index → timestamped fat pointers → values.
        let before = out.len();
        {
            let index = stream.indexes[owner.idx()].read();
            self.shards[owner.idx()].read_postings(key, index.postings_in(key, lo, hi), |ts, s| {
                out.extend(s.iter().map(|&v| (v, ts)))
            });
        }
        if remote && out.len() > before {
            let bytes = (out.len() - before) * std::mem::size_of::<Vid>();
            self.fabric.charge_read(home, owner, bytes, timer);
        }

        // Timing: each transient slice is one batch, tagged with the
        // batch timestamp.
        let before = out.len();
        {
            let transient = stream.transients[owner.idx()].read();
            if transient.has_entries() {
                transient.for_each_slice_in(lo, hi, |s| {
                    let ts = s.timestamp;
                    out.extend(s.neighbors(key).iter().map(|&v| (v, ts)));
                });
            }
        }
        if remote && out.len() > before {
            let bytes = (out.len() - before) * std::mem::size_of::<Vid>();
            self.fabric.charge_read(home, owner, bytes, timer);
        }
    }

    /// Streaming-data cardinality estimate for the planner (uncharged).
    pub fn stream_len(&self, stream_idx: usize, key: Key, lo: u64, hi: u64) -> usize {
        let stream = self.stream(stream_idx);
        let owner = self.owner(key);
        let idx_count = if key.is_index() {
            let mut v = Vec::new();
            for index in &stream.indexes {
                index
                    .read()
                    .vertices_in(key.pid(), key.dir(), lo, hi, &mut v);
            }
            v.len()
        } else {
            stream.indexes[owner.idx()].read().count_in(key, lo, hi)
        };
        let transient = stream.transients[owner.idx()].read();
        let timing_count = if transient.has_entries() {
            transient.neighbors_in(key, lo, hi).len()
        } else {
            0
        };
        idx_count + timing_count
    }

    /// Total persistent-store bytes across shards.
    pub fn store_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.heap_bytes()).sum()
    }

    /// Total triples across shards (counts a triple once per owning shard).
    pub fn triple_count(&self) -> u64 {
        self.shards.iter().map(|s| s.triple_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wukong_rdf::{Dir, Pid, StreamId};

    fn config(nodes: usize) -> EngineConfig {
        EngineConfig {
            nodes,
            ..EngineConfig::single_node()
        }
    }

    #[test]
    fn base_load_routes_to_owners() {
        let c = Cluster::new(&config(4));
        let ss = c.strings().clone();
        let t = Triple::new(
            ss.intern_entity("Logan").unwrap(),
            ss.intern_predicate("fo").unwrap(),
            ss.intern_entity("Erik").unwrap(),
        );
        c.load_base_triple(t);
        let mut out = Vec::new();
        let mut timer = TaskTimer::start();
        c.stored_neighbors(
            NodeId(0),
            t.out_key(),
            SnapshotId::BASE,
            &mut timer,
            &mut out,
        );
        assert_eq!(out, vec![t.o]);
    }

    #[test]
    fn remote_stored_read_charges_two_reads() {
        let c = Cluster::new(&config(2));
        // Find a vertex owned by node 1 and read it from node 0.
        let mut v = 1u64;
        while c.shard_map().node_of_vertex(Vid(v)) != 1 {
            v += 1;
        }
        let t = Triple::new(Vid(v), Pid(1), Vid(v));
        c.load_base_triple(t);
        let key = Key::new(Vid(v), Pid(1), Dir::Out);
        let mut out = Vec::new();
        let mut timer = TaskTimer::start();
        let before = c.fabric().metrics();
        c.stored_neighbors(NodeId(0), key, SnapshotId::BASE, &mut timer, &mut out);
        let delta = before.delta(&c.fabric().metrics());
        assert_eq!(delta.one_sided_reads, 2);
        assert!(timer.charged_ns() > 0);

        // The same read from the owner is free.
        let mut timer2 = TaskTimer::start();
        let before = c.fabric().metrics();
        c.stored_neighbors(NodeId(1), key, SnapshotId::BASE, &mut timer2, &mut out);
        let delta = before.delta(&c.fabric().metrics());
        assert_eq!(delta.one_sided_reads, 0);
        assert_eq!(timer2.charged_ns(), 0);
    }

    #[test]
    fn stream_registration_grows_state() {
        let c = Cluster::new(&config(2));
        assert_eq!(c.stream_count(), 0);
        let i = c.add_stream(StreamSchema::timeless(StreamId(0), "S", 100));
        assert_eq!(i, 0);
        assert_eq!(c.stream_count(), 1);
        let s = c.stream(0);
        assert_eq!(s.transients.len(), 2);
        assert_eq!(s.indexes.len(), 2);
    }
}
