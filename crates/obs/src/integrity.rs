//! State-integrity counters.
//!
//! The checksum-verification sites (batch seal → dispatch → install),
//! the invariant scrubber, and the quarantine/rebuild path all record
//! into one shared [`IntegrityCounters`] so a single snapshot answers
//! "was any corruption detected, where, and what did recovery cost".

crate::counters! {
    /// Monotonic counters of detected corruption and its repair.
    IntegrityCounters => IntegritySnapshot as "integrity" {
        /// Sealed batches rejected at the engine boundary (site: batch).
        checksum_fail_batch: sum,
        /// Sub-batches rejected at store install (site: message).
        checksum_fail_message: sum,
        /// Checkpoint sections rejected during decode (site: checkpoint).
        checksum_fail_checkpoint: sum,
        /// Violated engine invariants found by the scrubber.
        scrub_violations: sum,
        /// Shard transitions into the Quarantined state.
        quarantines: sum,
        /// Quarantined shards rebuilt from checkpoint + log replay.
        rebuilds: sum,
        /// Total nanoseconds spent in quarantine rebuilds.
        rebuild_ns: sum,
    }
}

impl IntegritySnapshot {
    /// Total detected checksum failures across all sites.
    pub fn checksum_failures(&self) -> u64 {
        self.checksum_fail_batch + self.checksum_fail_message + self.checksum_fail_checkpoint
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_delta() {
        let c = IntegrityCounters::default();
        c.checksum_fail_batch(1);
        c.checksum_fail_message(2);
        c.checksum_fail_checkpoint(1);
        c.quarantines(1);
        c.scrub_violations(5);
        assert_eq!(c.snapshot().checksum_failures(), 4);
    }

    #[test]
    fn entries_cover_every_field() {
        crate::counters::check_family(
            IntegrityCounters::TABLE,
            IntegrityCounters::snapshot,
            IntegritySnapshot::delta,
        );
    }
}
