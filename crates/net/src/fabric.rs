//! The simulated cluster fabric.
//!
//! A [`Fabric`] represents the interconnect of an `n`-node cluster. It does
//! not own any application state — shards live in the store layer — it owns
//! the *cost model* and the message channels, and it enforces the
//! simulation discipline: every cross-node access must pass through the
//! fabric so its latency is charged and counted.

use crate::clock::TaskTimer;
use crate::fault::{FaultEvent, FaultPlan, FaultState, MAX_RETRANSMITS};
use crate::message::Envelope;
use crate::metrics::{FabricMetrics, MetricsSnapshot};
use crate::profile::NetworkProfile;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::Duration;
use wukong_obs::FaultCounters;

/// Identifier of a simulated cluster node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u16);

impl NodeId {
    /// Index into per-node arrays.
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Error returned by [`Fabric::try_charge_read`] when the target node is
/// dead: the one-sided verb has no live NIC to complete against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeDown(pub NodeId);

impl std::fmt::Display for NodeDown {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node {} is down", self.0 .0)
    }
}

impl std::error::Error for NodeDown {}

/// The interconnect of a simulated cluster.
pub struct Fabric {
    profile: NetworkProfile,
    nodes: usize,
    metrics: Arc<FabricMetrics>,
    faults: Option<Arc<FaultState>>,
}

impl Fabric {
    /// Creates a fabric connecting `nodes` nodes under `profile` costs.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn new(nodes: usize, profile: NetworkProfile) -> Self {
        assert!(nodes > 0, "a cluster needs at least one node");
        Fabric {
            profile,
            nodes,
            metrics: Arc::new(FabricMetrics::default()),
            faults: None,
        }
    }

    /// Installs a fault plan; subsequent sends, reads, and clock advances
    /// consult it. Faults are recorded into `counters` (normally the
    /// engine registry's shared [`FaultCounters`]).
    pub fn install_faults(&mut self, plan: FaultPlan, counters: Arc<FaultCounters>) {
        self.faults = Some(Arc::new(FaultState::new(plan, self.nodes, counters)));
    }

    /// Whether a fault plan is installed.
    pub fn faults_enabled(&self) -> bool {
        self.faults.is_some()
    }

    /// The installed fault runtime, if any.
    pub fn fault_state(&self) -> Option<&Arc<FaultState>> {
        self.faults.as_ref()
    }

    /// The injected-fault event log so far (empty without a plan).
    pub fn fault_log(&self) -> Vec<FaultEvent> {
        self.faults.as_ref().map_or_else(Vec::new, |f| f.log())
    }

    /// Whether `node` is alive. Always `true` without a fault plan.
    pub fn is_up(&self, node: NodeId) -> bool {
        self.faults.as_ref().is_none_or(|f| f.is_up(node))
    }

    /// Kills `node` immediately (drill entry point). Returns whether the
    /// node was alive; a no-op without a fault plan.
    pub fn kill_node(&self, node: NodeId) -> bool {
        self.faults.as_ref().is_some_and(|f| f.kill(node))
    }

    /// Restarts a dead `node` (empty — recovery repopulates it). Returns
    /// whether the node was dead; a no-op without a fault plan.
    pub fn restart_node(&self, node: NodeId) -> bool {
        self.faults.as_ref().is_some_and(|f| f.restart(node))
    }

    /// Advances simulated time, firing any scheduled kills/restarts that
    /// have come due. The engine calls this from its ingest/advance path.
    pub fn advance_clock(&self, now_ms: u64) {
        if let Some(f) = &self.faults {
            f.advance_clock(now_ms);
        }
    }

    /// Number of nodes in the cluster.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The active cost model.
    pub fn profile(&self) -> NetworkProfile {
        self.profile
    }

    /// Shared operation counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Charges `timer` for a one-sided READ of `bytes` from `to`, issued by
    /// a task running on `from`. Local accesses are free.
    ///
    /// Returns the nanoseconds charged.
    pub fn charge_read(
        &self,
        from: NodeId,
        to: NodeId,
        bytes: usize,
        timer: &mut TaskTimer,
    ) -> u64 {
        if from == to {
            return 0;
        }
        let ns = self.scale(from, to, self.profile.read_cost(bytes));
        self.metrics.record_read(bytes, ns);
        timer.charge(ns);
        ns
    }

    /// Applies the installed slow-node profile (if any) to a charged
    /// duration: operations touching a slowed endpoint cost more.
    fn scale(&self, from: NodeId, to: NodeId, ns: u64) -> u64 {
        match &self.faults {
            Some(f) => f.scale_ns(from, to, ns),
            None => ns,
        }
    }

    /// Charges `timer` for one two-sided message of `bytes` between two
    /// distinct nodes. Local sends are free.
    pub fn charge_message(
        &self,
        from: NodeId,
        to: NodeId,
        bytes: usize,
        timer: &mut TaskTimer,
    ) -> u64 {
        if from == to {
            return 0;
        }
        let ns = self.scale(from, to, self.profile.message_cost(bytes));
        self.metrics.record_message(bytes, ns);
        timer.charge(ns);
        ns
    }

    /// Like [`Fabric::charge_read`], but fails when the target node is
    /// dead — the injected-fault analogue of an RDMA verb completing with
    /// an error status.
    pub fn try_charge_read(
        &self,
        from: NodeId,
        to: NodeId,
        bytes: usize,
        timer: &mut TaskTimer,
    ) -> Result<u64, NodeDown> {
        if from != to {
            if let Some(f) = &self.faults {
                if !f.is_up(to) {
                    f.record_dead_read(from, to);
                    // The verb completed with an error: to the issuing
                    // firing this is a missed read deadline, attributed
                    // through the caller's scoped flight recorder.
                    wukong_obs::trace::scoped_marker(
                        wukong_obs::trace::Marker::DeadlineMiss,
                        u64::from(to.0),
                    );
                    return Err(NodeDown(to));
                }
            }
        }
        Ok(self.charge_read(from, to, bytes, timer))
    }

    /// Sends one logical message `from → to` with at-least-once
    /// semantics: dropped transmissions are re-sent (each attempt charges
    /// the hop cost) until one is delivered, up to [`MAX_RETRANSMITS`].
    ///
    /// Returns how many copies reached the destination: `0` means the
    /// destination is dead (or a total-loss link exhausted its retries),
    /// `2` means a duplicating link delivered the message twice — the
    /// receiver's dedup layer is expected to suppress the extra copy.
    /// Without a fault plan this is exactly one charged message.
    pub fn send_at_least_once(
        &self,
        from: NodeId,
        to: NodeId,
        bytes: usize,
        timer: &mut TaskTimer,
    ) -> u32 {
        if from == to {
            return 1;
        }
        let Some(f) = &self.faults else {
            self.charge_message(from, to, bytes, timer);
            return 1;
        };
        let mut attempts = 0u32;
        loop {
            if !f.is_up(to) {
                f.record_drop(from, to);
                wukong_obs::trace::scoped_marker(
                    wukong_obs::trace::Marker::DeadlineMiss,
                    u64::from(to.0),
                );
                return 0;
            }
            self.charge_message(from, to, bytes, timer);
            let v = f.decide_link(from, to);
            timer.charge(v.extra_ns);
            if v.copies > 0 {
                return v.copies;
            }
            attempts += 1;
            if attempts >= MAX_RETRANSMITS {
                // A total-loss link exhausted its retry budget — the
                // delivery deadline is gone for good.
                wukong_obs::trace::scoped_marker(
                    wukong_obs::trace::Marker::DeadlineMiss,
                    u64::from(to.0),
                );
                return 0;
            }
            f.counters().retransmits(1);
        }
    }

    /// Builds one typed mailbox per node for two-sided communication.
    ///
    /// Returns the per-node endpoints; each can send to any node and
    /// receive from its own mailbox. Sends through an endpoint charge the
    /// fabric's message cost automatically and consult the installed
    /// fault plan (if any) for drops, duplicates, and delays.
    pub fn endpoints<T>(&self) -> Vec<Endpoint<T>> {
        type Mailbox<T> = (Sender<Envelope<T>>, Receiver<Envelope<T>>);
        let channels: Vec<Mailbox<T>> = (0..self.nodes).map(|_| unbounded()).collect();
        let senders: Vec<Sender<Envelope<T>>> = channels.iter().map(|(s, _)| s.clone()).collect();
        channels
            .into_iter()
            .enumerate()
            .map(|(i, (_, rx))| Endpoint {
                node: NodeId(i as u16),
                profile: self.profile,
                metrics: Arc::clone(&self.metrics),
                faults: self.faults.clone(),
                senders: senders.clone(),
                rx,
            })
            .collect()
    }
}

/// A node's handle for two-sided messaging over the fabric.
pub struct Endpoint<T> {
    node: NodeId,
    profile: NetworkProfile,
    metrics: Arc<FabricMetrics>,
    faults: Option<Arc<FaultState>>,
    senders: Vec<Sender<Envelope<T>>>,
    rx: Receiver<Envelope<T>>,
}

impl<T> Endpoint<T> {
    /// The node this endpoint belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Sends `payload` of wire size `bytes` to `to`, charging the hop cost.
    ///
    /// Returns the nanoseconds charged for the hop. The same charge rides
    /// in the envelope so the receiver can account for arrival delay.
    ///
    /// With a fault plan installed, the message may be dropped (nothing
    /// arrives), duplicated (two envelopes arrive), or delayed (the
    /// envelope carries extra charged latency); the sender still pays and
    /// records the hop cost either way. Self-sends are never faulted.
    pub fn send(&self, to: NodeId, bytes: usize, payload: T) -> u64
    where
        T: Clone,
    {
        let ns = if to == self.node {
            0
        } else {
            let mut ns = self.profile.message_cost(bytes);
            if let Some(f) = &self.faults {
                ns = f.scale_ns(self.node, to, ns);
            }
            self.metrics.record_message(bytes, ns);
            ns
        };
        let delivery = match &self.faults {
            Some(f) if to != self.node => f.decide(self.node, to),
            _ => crate::fault::Delivery {
                copies: 1,
                extra_ns: 0,
            },
        };
        // Mailboxes are unbounded and live as long as any endpoint, so a
        // send can only fail if every endpoint for `to` was dropped; the
        // cluster tears endpoints down together, making that a bug.
        for _ in 0..delivery.copies {
            self.senders[to.idx()]
                .send(Envelope {
                    from: self.node,
                    bytes,
                    charged_ns: ns + delivery.extra_ns,
                    payload: payload.clone(),
                })
                .expect("destination endpoint dropped while cluster still running");
        }
        ns
    }

    /// Receives the next message, blocking until one arrives.
    pub fn recv(&self) -> Envelope<T> {
        self.rx.recv().expect("all senders dropped")
    }

    /// Receives with a real-time timeout (used by engine shutdown paths).
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Envelope<T>, RecvTimeoutError> {
        self.rx.recv_timeout(timeout)
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Envelope<T>> {
        self.rx.try_recv().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_ops_are_free() {
        let f = Fabric::new(2, NetworkProfile::rdma());
        let mut t = TaskTimer::start();
        assert_eq!(f.charge_read(NodeId(0), NodeId(0), 1024, &mut t), 0);
        assert_eq!(f.charge_message(NodeId(1), NodeId(1), 1024, &mut t), 0);
        assert_eq!(t.charged_ns(), 0);
        assert_eq!(f.metrics().one_sided_reads, 0);
    }

    #[test]
    fn remote_read_charges_and_counts() {
        let f = Fabric::new(2, NetworkProfile::rdma());
        let mut t = TaskTimer::start();
        let ns = f.charge_read(NodeId(0), NodeId(1), 64, &mut t);
        assert!(ns >= 2_000);
        assert_eq!(t.charged_ns(), ns);
        let m = f.metrics();
        assert_eq!(m.one_sided_reads, 1);
        assert_eq!(m.bytes_read, 64);
    }

    #[test]
    fn endpoints_deliver_messages() {
        let f = Fabric::new(3, NetworkProfile::rdma());
        let mut eps = f.endpoints::<&'static str>();
        let e2 = eps.remove(2);
        let e0 = eps.remove(0);
        let charged = e0.send(NodeId(2), 10, "hello");
        assert!(charged > 0);
        let env = e2.recv();
        assert_eq!(env.payload, "hello");
        assert_eq!(env.from, NodeId(0));
        assert_eq!(env.charged_ns, charged);
        assert_eq!(f.metrics().messages, 1);
    }

    #[test]
    fn self_send_is_free_but_delivered() {
        let f = Fabric::new(1, NetworkProfile::tcp());
        let eps = f.endpoints::<u32>();
        assert_eq!(eps[0].send(NodeId(0), 100, 7), 0);
        assert_eq!(eps[0].recv().payload, 7);
        assert_eq!(f.metrics().messages, 0);
    }

    #[test]
    fn tcp_profile_charges_more() {
        let rdma = Fabric::new(2, NetworkProfile::rdma());
        let tcp = Fabric::new(2, NetworkProfile::tcp());
        let mut tr = TaskTimer::start();
        let mut tt = TaskTimer::start();
        let r = rdma.charge_read(NodeId(0), NodeId(1), 256, &mut tr);
        let t = tcp.charge_read(NodeId(0), NodeId(1), 256, &mut tt);
        assert!(t > 10 * r);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_node_cluster_rejected() {
        let _ = Fabric::new(0, NetworkProfile::rdma());
    }

    #[test]
    fn recv_timeout_expires_then_delivers() {
        let f = Fabric::new(2, NetworkProfile::rdma());
        let mut eps = f.endpoints::<u32>();
        let e1 = eps.remove(1);
        let e0 = eps.remove(0);
        assert!(matches!(
            e1.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Timeout)
        ));
        e0.send(NodeId(1), 8, 42);
        let env = e1.recv_timeout(Duration::from_millis(5)).expect("queued");
        assert_eq!(env.payload, 42);
    }

    #[test]
    fn try_recv_is_non_blocking() {
        let f = Fabric::new(2, NetworkProfile::rdma());
        let eps = f.endpoints::<u32>();
        assert!(eps[0].try_recv().is_none());
        eps[1].send(NodeId(0), 8, 9);
        assert_eq!(eps[0].try_recv().expect("queued").payload, 9);
        assert!(eps[0].try_recv().is_none());
    }

    #[test]
    fn recv_timeout_reports_disconnect() {
        // Endpoints hold every sender (including their own), so the
        // Disconnected arm is only reachable at the raw channel level.
        let (tx, rx) = unbounded::<Envelope<u32>>();
        drop(tx);
        assert!(matches!(
            rx.recv_timeout(Duration::from_millis(1)),
            Err(RecvTimeoutError::Disconnected)
        ));
    }

    fn faulty(nodes: usize, plan: FaultPlan) -> Fabric {
        let mut f = Fabric::new(nodes, NetworkProfile::rdma());
        f.install_faults(plan, Arc::new(FaultCounters::default()));
        f
    }

    #[test]
    fn lossy_endpoint_sends_are_deterministic_per_seed() {
        let deliveries = |seed: u64| -> Vec<usize> {
            let f = faulty(2, FaultPlan::seeded(seed).lossy(0.4, 0.3));
            let eps = f.endpoints::<u32>();
            (0..100)
                .map(|i| {
                    eps[0].send(NodeId(1), 16, i);
                    let mut n = 0;
                    while eps[1].try_recv().is_some() {
                        n += 1;
                    }
                    n
                })
                .collect()
        };
        let a = deliveries(11);
        assert_eq!(a, deliveries(11));
        assert_ne!(a, deliveries(12));
        assert!(a.contains(&0), "some messages must drop");
        assert!(a.contains(&2), "some messages must duplicate");
    }

    #[test]
    fn killed_node_swallows_messages_and_fails_reads() {
        let f = faulty(3, FaultPlan::seeded(5));
        let eps = f.endpoints::<u32>();
        let mut t = TaskTimer::start();
        assert!(f.try_charge_read(NodeId(0), NodeId(2), 64, &mut t).is_ok());

        assert!(f.kill_node(NodeId(2)));
        assert!(!f.is_up(NodeId(2)));
        assert!(!f.kill_node(NodeId(2)), "already dead");
        eps[0].send(NodeId(2), 16, 1);
        assert!(eps[2].try_recv().is_none(), "dead mailbox gets nothing");
        assert_eq!(
            f.try_charge_read(NodeId(0), NodeId(2), 64, &mut t),
            Err(NodeDown(NodeId(2)))
        );

        assert!(f.restart_node(NodeId(2)));
        eps[0].send(NodeId(2), 16, 2);
        assert_eq!(eps[2].try_recv().expect("alive again").payload, 2);
        let log = f.fault_log();
        assert!(log.contains(&FaultEvent::Killed {
            node: NodeId(2),
            at_ms: 0
        }));
        assert!(log.contains(&FaultEvent::DeadRead {
            from: NodeId(0),
            to: NodeId(2)
        }));
    }

    #[test]
    fn advance_clock_fires_the_schedule() {
        let f = faulty(2, FaultPlan::seeded(0).kill_at(NodeId(1), 300));
        assert!(f.is_up(NodeId(1)));
        f.advance_clock(299);
        assert!(f.is_up(NodeId(1)));
        f.advance_clock(300);
        assert!(!f.is_up(NodeId(1)));
    }

    #[test]
    fn at_least_once_repairs_drops_but_not_death() {
        let plan = FaultPlan::seeded(21).lossy(0.5, 0.0);
        let f = faulty(2, plan);
        let mut t = TaskTimer::start();
        for _ in 0..50 {
            assert_eq!(f.send_at_least_once(NodeId(0), NodeId(1), 32, &mut t), 1);
        }
        let snap = f.fault_state().expect("installed").counters().snapshot();
        assert!(snap.retransmits > 0, "a 50% link must need retransmits");
        assert_eq!(snap.retransmits, snap.msgs_dropped);

        f.kill_node(NodeId(1));
        assert_eq!(f.send_at_least_once(NodeId(0), NodeId(1), 32, &mut t), 0);
        // Self-sends and fault-free fabrics deliver exactly once.
        assert_eq!(f.send_at_least_once(NodeId(0), NodeId(0), 32, &mut t), 1);
        let clean = Fabric::new(2, NetworkProfile::rdma());
        assert_eq!(
            clean.send_at_least_once(NodeId(0), NodeId(1), 32, &mut t),
            1
        );
    }
}
