//! Fabric-wide operation counters.
//!
//! The benchmark harness uses these to report *why* a configuration is
//! slower (e.g. Non-RDMA turning each one-sided read into an RPC pair), and
//! the tests use them to assert operation counts — the quantity the
//! simulation is designed to reproduce faithfully.

wukong_obs::counters! {
    /// Monotonic counters of fabric activity.
    FabricMetrics => MetricsSnapshot as "fabric" {
        /// Number of one-sided READ verbs issued.
        one_sided_reads: sum,
        /// Number of two-sided messages sent.
        messages: sum,
        /// Payload bytes moved by READs.
        bytes_read: sum,
        /// Payload bytes moved by messages.
        bytes_sent: sum,
        /// Total virtual nanoseconds charged for network activity.
        charged_ns: sum,
    }
}

impl FabricMetrics {
    /// Records a one-sided read of `bytes` charged `ns`.
    pub fn record_read(&self, bytes: usize, ns: u64) {
        self.one_sided_reads(1);
        self.bytes_read(bytes as u64);
        self.charged_ns(ns);
    }

    /// Records a two-sided message of `bytes` charged `ns`.
    pub fn record_message(&self, bytes: usize, ns: u64) {
        self.messages(1);
        self.bytes_sent(bytes as u64);
        self.charged_ns(ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = FabricMetrics::default();
        m.record_read(100, 2_000);
        m.record_read(50, 2_000);
        m.record_message(10, 5_000);
        let s = m.snapshot();
        assert_eq!(s.one_sided_reads, 2);
        assert_eq!(s.messages, 1);
        assert_eq!(s.bytes_read, 150);
        assert_eq!(s.bytes_sent, 10);
        assert_eq!(s.charged_ns, 9_000);
    }

    #[test]
    fn snapshot_delta() {
        wukong_obs::counters::check_family(
            FabricMetrics::TABLE,
            FabricMetrics::snapshot,
            MetricsSnapshot::delta,
        );
    }
}
