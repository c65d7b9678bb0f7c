//! Overload-management counters.
//!
//! The overload subsystem (bounded ingest + deterministic shedding +
//! shed-then-catch-up recovery, in `wukong-core`/`wukong-stream`) records
//! into one shared [`OverloadCounters`] so a single snapshot answers
//! "how hard was the engine pushed and what did it give up" for an
//! experiment interval.

crate::counters! {
    /// Monotonic counters of load shedding, admission control, and catch-up.
    OverloadCounters => OverloadSnapshot as "overload" {
        /// Shed events under the drop-oldest-window policy.
        sheds_drop_oldest: sum,
        /// Shed events under the sample-within-batch policy.
        sheds_sampled: sum,
        /// Tuples dropped by the shed policy (before any catch-up replay).
        tuples_shed: sum,
        /// One-shot queries rejected by admission control.
        admission_rejected: sum,
        /// Degradation state-machine transitions.
        state_transitions: sum,
        /// Completed catch-up replay episodes.
        catchup_replays: sum,
        /// Tuples re-inserted by catch-up replays.
        catchup_replayed_tuples: sum,
        /// Firings that carried a `degraded` staleness marker.
        degraded_firings: sum,
        /// Incremental state rebuilds forced by a shed gap.
        incremental_rebuilds: sum,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_delta() {
        let c = OverloadCounters::default();
        c.sheds_drop_oldest(1);
        c.tuples_shed(40);
        let before = c.snapshot();
        c.sheds_sampled(1);
        c.tuples_shed(10);
        c.catchup_replayed_tuples(50);
        let d = before.delta(&c.snapshot());
        assert_eq!(d.sheds_drop_oldest, 0);
        assert_eq!(d.sheds_sampled, 1);
        assert_eq!(d.tuples_shed, 10);
        assert_eq!(d.catchup_replayed_tuples, 50);
        assert_eq!(before.tuples_shed, 40);
    }

    #[test]
    fn entries_cover_every_field() {
        crate::counters::check_family(
            OverloadCounters::TABLE,
            OverloadCounters::snapshot,
            OverloadSnapshot::delta,
        );
    }
}
