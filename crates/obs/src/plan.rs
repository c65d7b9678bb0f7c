//! Adaptive-planning counters.
//!
//! The adaptive layer's economics are "plans reused vs plans rebuilt"
//! and "estimate drift caught vs missed": the plan cache removes repeat
//! planning work from one-shot bursts, and the drift detector trades a
//! re-planning pause for cheaper firings afterwards. The engine records
//! every cache probe, feedback observation, re-plan, and execution-mode
//! decision here, plus the modeled work metric (`edges_traversed`) the
//! bench harness uses to compare plan quality deterministically. The
//! harness diffs snapshots around an experiment, like the fabric /
//! fault / pool / incremental / overload counters.

crate::counters! {
    /// Monotonic counters of adaptive-planning activity.
    PlanCounters => PlanSnapshot as "plan" {
        /// Plan-cache probes answered from the cache.
        cache_hits: sum,
        /// Plan-cache probes that had to plan from scratch.
        cache_misses: sum,
        /// Firings whose per-step fan-out fed the drift detector.
        feedback_firings: sum,
        /// Observed firings whose fan-out left the tolerance band.
        drifted_firings: sum,
        /// Re-plans of registered continuous queries (detector trips).
        replans: sum,
        /// Maintained-query delta states invalidated by a plan switch
        /// (each rebuilds on its next firing).
        delta_rebuilds: sum,
        /// Firings the cost model ran in place.
        mode_inplace: sum,
        /// Firings the cost model fanned out across partitions.
        mode_forkjoin: sum,
        /// Index edges traversed (sum of per-step output rows) across
        /// recompute firings — the modeled plan-quality metric.
        edges_traversed: sum,
    }
}

impl PlanCounters {
    /// Records one plan-cache probe.
    pub fn record_cache(&self, hit: bool) {
        if hit {
            self.cache_hits(1);
        } else {
            self.cache_misses(1);
        }
    }

    /// Records one firing observed by the drift detector; `drifted` says
    /// whether its fan-out left the tolerance band.
    pub fn record_feedback(&self, drifted: bool) {
        self.feedback_firings(1);
        if drifted {
            self.drifted_firings(1);
        }
    }

    /// Records one cost-model execution-mode decision.
    pub fn record_mode(&self, forkjoin: bool) {
        if forkjoin {
            self.mode_forkjoin(1);
        } else {
            self.mode_inplace(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_delta() {
        let c = PlanCounters::default();
        c.record_cache(false);
        let before = c.snapshot();
        c.record_cache(true);
        c.record_cache(true);
        c.record_feedback(false);
        c.record_feedback(true);
        c.record_mode(false);
        c.record_mode(true);
        let d = before.delta(&c.snapshot());
        assert_eq!(d.cache_hits, 2);
        assert_eq!(d.cache_misses, 0);
        assert_eq!(d.feedback_firings, 2);
        assert_eq!(d.drifted_firings, 1);
        assert_eq!(d.mode_inplace, 1);
        assert_eq!(d.mode_forkjoin, 1);
        assert_eq!(before.cache_misses, 1);
    }

    #[test]
    fn entries_cover_every_field() {
        crate::counters::check_family(
            PlanCounters::TABLE,
            PlanCounters::snapshot,
            PlanSnapshot::delta,
        );
    }
}
