//! Fault and recovery counters.
//!
//! The fault-injection layer (in `wukong-net`) and the recovery path (in
//! `wukong-core`) both record into one shared [`FaultCounters`] so a
//! single snapshot answers "what went wrong and what did the engine do
//! about it" for an experiment interval.

crate::counters! {
    /// Monotonic counters of injected faults and the engine's reactions.
    FaultCounters => FaultSnapshot as "faults" {
        /// Messages dropped by lossy links or dead destinations.
        msgs_dropped: sum,
        /// Messages delivered twice by duplicating links.
        msgs_duplicated: sum,
        /// Messages delivered late by delaying links.
        msgs_delayed: sum,
        /// Drops repaired by the at-least-once retransmit layer.
        retransmits: sum,
        /// RPC waits that expired before a reply arrived.
        rpc_timeouts: sum,
        /// RPC attempts made after a timeout.
        rpc_retries: sum,
        /// One-sided reads that targeted a dead node.
        dead_reads: sum,
        /// Queries answered with partial results (unreachable shards).
        degraded_answers: sum,
        /// Duplicated/replayed batches suppressed by VTS dedup.
        dedup_suppressed: sum,
        /// Logged batches replayed during recovery.
        replayed_batches: sum,
        /// Completed checkpoint-and-log recoveries.
        recoveries: sum,
        /// Nodes killed by the fault schedule or a drill.
        node_kills: sum,
        /// Dead nodes restarted.
        node_restarts: sum,
        /// Fabric operations charged extra by slow-node (gray failure) rules.
        ops_slowed: sum,
        /// In-flight message payloads that had a bit flipped.
        msgs_corrupted: sum,
        /// Captured checkpoint images that had a bit flipped.
        checkpoints_corrupted: sum,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_delta() {
        let c = FaultCounters::default();
        c.msgs_dropped(2);
        c.retransmits(1);
        c.dedup_suppressed(3);
        let before = c.snapshot();
        c.msgs_dropped(1);
        c.replayed_batches(5);
        let d = before.delta(&c.snapshot());
        assert_eq!(d.msgs_dropped, 1);
        assert_eq!(d.replayed_batches, 5);
        assert_eq!(d.retransmits, 0);
        assert_eq!(before.msgs_dropped, 2);
        assert_eq!(before.dedup_suppressed, 3);
    }

    #[test]
    fn entries_cover_every_field() {
        crate::counters::check_family(
            FaultCounters::TABLE,
            FaultCounters::snapshot,
            FaultSnapshot::delta,
        );
    }
}
