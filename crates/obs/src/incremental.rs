//! Delta-maintenance counters.
//!
//! The incremental execution mode's economics are "rows reused vs rows
//! recomputed": a high reuse ratio is what turns window overlap into
//! latency savings. The engine records every continuous-query firing
//! here — which path it took (incremental, full rebuild, or recompute
//! fallback) and how many state rows each maintained firing carried
//! over, re-derived, and retracted. The bench harness diffs snapshots
//! around an experiment, like the fabric / fault / pool counters.

crate::counters! {
    /// Monotonic counters of incremental-execution activity.
    IncrementalCounters => IncrementalSnapshot as "incremental" {
        /// Firings maintained by delta application over retained state.
        incremental_firings: sum,
        /// Firings that rebuilt state from scratch (first firing of a query,
        /// post-recovery, or non-monotone window movement).
        rebuild_firings: sum,
        /// Firings that ran the full recompute path instead (mode off,
        /// non-incrementalizable plan, or fault plan active).
        fallback_firings: sum,
        /// State rows carried over across maintained firings.
        rows_reused: sum,
        /// Rows newly derived by delta application or rebuild.
        rows_recomputed: sum,
        /// State rows dropped because a contributing edge expired.
        rows_retracted: sum,
    }
}

impl IncrementalCounters {
    /// Records one maintained firing: `rebuilt` says whether state was
    /// rebuilt from scratch, the row counts say what the maintenance did.
    pub fn record_maintained(&self, rebuilt: bool, reused: u64, recomputed: u64, retracted: u64) {
        if rebuilt {
            self.rebuild_firings(1);
        } else {
            self.incremental_firings(1);
        }
        self.rows_reused(reused);
        self.rows_recomputed(recomputed);
        self.rows_retracted(retracted);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maintained_and_fallback_accumulate_and_delta() {
        let c = IncrementalCounters::default();
        c.record_maintained(true, 0, 10, 0);
        let before = c.snapshot();
        c.record_maintained(false, 8, 3, 2);
        c.record_maintained(false, 9, 1, 0);
        let d = before.delta(&c.snapshot());
        assert_eq!(d.incremental_firings, 2);
        assert_eq!(d.rebuild_firings, 0);
        assert_eq!(d.rows_reused, 17);
        assert_eq!(d.rows_recomputed, 4);
        assert_eq!(d.rows_retracted, 2);
        assert_eq!(before.rebuild_firings, 1);
        assert_eq!(before.rows_recomputed, 10);
    }

    #[test]
    fn entries_cover_every_field() {
        crate::counters::check_family(
            IncrementalCounters::TABLE,
            IncrementalCounters::snapshot,
            IncrementalSnapshot::delta,
        );
    }
}
