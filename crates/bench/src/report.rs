//! Table formatting helpers for the experiment binaries, plus the
//! machine-readable `--json <path>` report every binary supports.

use std::path::PathBuf;

use wukong_core::metrics::LatencyRecorder;
use wukong_core::{RecoveryReport, WukongS};
use wukong_obs::{CounterSet, HistogramSnapshot, Json, RegistrySnapshot};

/// Version stamped into every JSON report as `schema_version`. Bump when
/// the document layout changes incompatibly.
///
/// Version history: DESIGN.md §7 ("JSON report schema").
pub const JSON_SCHEMA_VERSION: u64 = 8;

/// Collects an experiment's machine-readable results and writes them as
/// one schema-stable JSON document when the binary was invoked with
/// `--json <path>`. When the flag is absent every method is a cheap
/// no-op, so binaries record unconditionally.
///
/// The document layout — every member, its keys, and when each is
/// all-zero or empty — is specified in DESIGN.md §7 ("JSON report
/// schema"). Every counter-family member is written by the one
/// [`BenchJson::counter_set`] writer, so its keys are exactly the
/// family's declared counter table.
pub struct BenchJson {
    path: Option<PathBuf>,
    doc: Json,
}

fn histogram_json(h: &HistogramSnapshot) -> Json {
    let mut o = Json::object();
    o.set("count", Json::from(h.count));
    o.set("sum_ns", Json::from(h.sum));
    o.set(
        "p50_ns",
        h.percentile(0.50).map(Json::from).unwrap_or(Json::Null),
    );
    o.set(
        "p99_ns",
        h.percentile(0.99).map(Json::from).unwrap_or(Json::Null),
    );
    o
}

fn stages_json(reg: &RegistrySnapshot) -> Json {
    let mut queries = Json::object();
    for (class, series) in &reg.queries {
        let mut entry = Json::object();
        entry.set("end_to_end_ns", histogram_json(&series.end_to_end));
        for (stage, h) in &series.stages {
            entry.set(stage.name(), histogram_json(h));
        }
        queries.set(class, entry);
    }
    let mut streams = Json::object();
    for (name, series) in &reg.streams {
        let mut entry = Json::object();
        for (stage, h) in &series.stages {
            entry.set(stage.name(), histogram_json(h));
        }
        streams.set(name, entry);
    }
    let mut o = Json::object();
    o.set("queries", queries);
    o.set("streams", streams);
    o
}

impl BenchJson {
    /// Builds a sink for `experiment`, reading `--json <path>` from the
    /// process arguments. Without the flag the sink is inactive.
    pub fn from_env(experiment: &str) -> Self {
        let mut args = std::env::args();
        let mut path = None;
        while let Some(a) = args.next() {
            if a == "--json" {
                path = args.next().map(PathBuf::from);
                if path.is_none() {
                    eprintln!("--json requires a path argument");
                    std::process::exit(2);
                }
            }
        }
        Self::build(experiment, path)
    }

    /// Builds an always-active sink writing to `path` (tests).
    pub fn to_path(experiment: &str, path: impl Into<PathBuf>) -> Self {
        Self::build(experiment, Some(path.into()))
    }

    fn build(experiment: &str, path: Option<PathBuf>) -> Self {
        let mut doc = Json::object();
        doc.set("schema_version", Json::from(JSON_SCHEMA_VERSION));
        doc.set("experiment", Json::from(experiment));
        doc.set("latency_ms", Json::object());
        doc.set("counters", Json::object());
        doc.set("fabric", Json::object());
        doc.set("faults", Json::object());
        doc.set("recovery", Json::object());
        doc.set("pool", Json::object());
        doc.set("incremental", Json::object());
        doc.set("overload", Json::object());
        doc.set("plan", Json::object());
        doc.set("integrity", Json::object());
        doc.set("trace", Json::object());
        doc.set("stages", {
            let mut s = Json::object();
            s.set("queries", Json::object());
            s.set("streams", Json::object());
            s
        });
        BenchJson { path, doc }
    }

    /// Whether a report will actually be written.
    pub fn active(&self) -> bool {
        self.path.is_some()
    }

    fn member(&mut self, key: &str) -> &mut Json {
        match &mut self.doc {
            Json::Obj(map) => map.get_mut(key).expect("member created in build()"),
            _ => unreachable!("doc is an object"),
        }
    }

    /// Records a latency series (percentiles in milliseconds).
    pub fn series(&mut self, name: &str, rec: &LatencyRecorder) {
        if !self.active() {
            return;
        }
        let mut entry = Json::object();
        entry.set("samples", Json::from(rec.len()));
        for (key, p) in [("p50", 50.0), ("p90", 90.0), ("p99", 99.0), ("p999", 99.9)] {
            entry.set(key, rec.percentile(p).map(Json::from).unwrap_or(Json::Null));
        }
        entry.set("mean", rec.mean().map(Json::from).unwrap_or(Json::Null));
        self.member("latency_ms").set(name, entry);
    }

    /// Records one free-form numeric counter (op counts, bytes, …).
    pub fn counter(&mut self, name: &str, value: f64) {
        if !self.active() {
            return;
        }
        self.member("counters").set(name, Json::from(value));
    }

    /// Records one counter family (usually an interval delta) as its
    /// report member, keyed by the family's counter names.
    pub fn counter_set<S: CounterSet>(&mut self, snap: &S) {
        if !self.active() {
            return;
        }
        let mut o = Json::object();
        for (name, v) in snap.entries() {
            o.set(name, Json::from(v));
        }
        *self.member(S::MEMBER) = o;
    }

    /// Records a recovery's replay metrics.
    pub fn recovery(&mut self, r: &RecoveryReport) {
        if !self.active() {
            return;
        }
        let mut o = Json::object();
        o.set("recovery_ms", Json::from(r.recovery_ms));
        o.set("replayed_batches", Json::from(r.replayed_batches));
        o.set("replayed_queries", Json::from(r.replayed_queries));
        o.set("dedup_suppressed", Json::from(r.dedup_suppressed));
        o.set("restored_stable_sn", Json::from(r.restored_stable_sn));
        o.set("integrity_violations", Json::from(r.integrity_violations));
        o.set("quarantined_shards", Json::from(r.quarantined_shards));
        // Causal labels of the replayed log, joinable against
        // flight-recorder traces; capped to keep reports bounded.
        o.set(
            "replayed_batch_ids",
            Json::Arr(
                r.replayed_batch_ids
                    .iter()
                    .take(32)
                    .map(|b| Json::Str(b.label()))
                    .collect(),
            ),
        );
        *self.member("recovery") = o;
    }

    /// Captures an engine's fabric counters, operational counters, and
    /// staged latency breakdown.
    pub fn engine(&mut self, engine: &WukongS) {
        if !self.active() {
            return;
        }
        let stats = engine.stats();
        self.counter_set(&stats.fabric);
        for (name, v) in [
            ("nodes", stats.nodes as f64),
            ("streams", stats.streams as f64),
            ("continuous_queries", stats.continuous_queries as f64),
            ("stored_triples", stats.stored_triples as f64),
            ("store_bytes", stats.store_bytes as f64),
            ("stream_index_bytes", stats.stream_index_bytes as f64),
            ("transient_bytes", stats.transient_bytes as f64),
            ("raw_stream_bytes", stats.raw_stream_bytes as f64),
            ("batches_processed", stats.batches_processed as f64),
        ] {
            self.counter(name, v);
        }
        let handle = engine.handle();
        let obs = handle.obs();
        self.counter_set(&handle.fault_counters());
        self.counter_set(&obs.pool().snapshot());
        self.counter_set(&obs.incremental().snapshot());
        self.counter_set(&obs.overload().snapshot());
        self.counter_set(&obs.plan().snapshot());
        self.counter_set(&obs.integrity().snapshot());
        self.counter_set(&handle.trace_snapshot());
        *self.member("stages") = stages_json(&handle.obs_snapshot());
    }

    /// The document built so far (tests).
    pub fn document(&self) -> &Json {
        &self.doc
    }

    /// Writes the report if `--json` was given. Returns the path written.
    pub fn finish(self) -> Option<PathBuf> {
        let path = self.path?;
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent)
                .unwrap_or_else(|e| panic!("creating {}: {e}", parent.display()));
        }
        std::fs::write(&path, self.doc.to_string_pretty())
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        println!("wrote JSON report to {}", path.display());
        Some(path)
    }
}

#[cfg(test)]
mod bench_json_tests {
    use super::*;
    use wukong_obs::counters::Counter;

    #[test]
    fn inactive_sink_is_a_noop() {
        let mut j = BenchJson::build("t", None);
        let mut rec = LatencyRecorder::new();
        rec.record(1.0);
        j.series("a", &rec);
        j.counter("b", 2.0);
        assert_eq!(j.document().get("latency_ms"), Some(&Json::object()));
        assert_eq!(j.finish(), None);
    }

    #[test]
    fn document_is_schema_stable() {
        let mut j = BenchJson::to_path("t", "/tmp/ignored.json");
        let mut rec = LatencyRecorder::new();
        for v in [1.0, 2.0, 3.0] {
            rec.record(v);
        }
        j.series("L1", &rec);
        j.counter("ops", 42.0);
        let doc = j.document();
        assert_eq!(doc.get("schema_version").and_then(Json::as_u64), Some(8));
        assert_eq!(doc.get("experiment").and_then(Json::as_str), Some("t"));
        let l1 = doc.get("latency_ms").unwrap().get("L1").unwrap();
        assert_eq!(l1.get("samples").and_then(Json::as_u64), Some(3));
        assert_eq!(l1.get("p50").and_then(Json::as_f64), Some(2.0));
        for key in [
            "counters",
            "fabric",
            "faults",
            "recovery",
            "pool",
            "incremental",
            "overload",
            "plan",
            "integrity",
            "trace",
            "stages",
        ] {
            assert!(doc.get(key).is_some(), "missing {key}");
        }
    }

    /// Checks one counter family end to end: its generated code against
    /// its table, a bumped snapshot written by [`BenchJson::counter_set`]
    /// (keys and values exactly its `entries()`), and its member in the
    /// `engine_doc` written by [`BenchJson::engine`] (same key set).
    fn check_family<C: Default, S: CounterSet>(
        table: &[Counter<C>],
        snapshot: fn(&C) -> S,
        delta: fn(&S, &S) -> S,
        engine_doc: &Json,
    ) {
        wukong_obs::counters::check_family(table, snapshot, delta);
        let c = C::default();
        for (i, (_, _, record)) in table.iter().enumerate() {
            record(&c, i as u64 + 1);
        }
        let entries = snapshot(&c).entries();
        let mut j = BenchJson::to_path("t", "/tmp/ignored.json");
        j.counter_set(&snapshot(&c));
        let member = j.document().get(S::MEMBER).and_then(Json::as_obj);
        let written: Vec<_> = member
            .unwrap()
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_u64()))
            .collect();
        let mut want: Vec<_> = entries.iter().map(|(k, v)| (*k, Some(*v))).collect();
        want.sort();
        assert_eq!(written, want, "{} written by counter_set", S::MEMBER);
        let text = j.document().to_string_pretty();
        assert_eq!(&wukong_obs::json::parse(&text).unwrap(), j.document());
        assert_member_keys::<S>(engine_doc, &entries);
    }

    fn assert_member_keys<S: CounterSet>(doc: &Json, entries: &[(&'static str, u64)]) {
        let member = doc.get(S::MEMBER).and_then(Json::as_obj);
        let keys: Vec<_> = member.unwrap().keys().map(String::as_str).collect();
        let mut want: Vec<_> = entries.iter().map(|(k, _)| *k).collect();
        want.sort();
        assert_eq!(keys, want, "{} written by engine", S::MEMBER);
    }

    #[test]
    fn every_counter_family_round_trips() {
        use wukong_net::{FabricMetrics, MetricsSnapshot};
        use wukong_obs::*;
        let engine = WukongS::new(wukong_core::EngineConfig::single_node());
        let mut j = BenchJson::to_path("t", "/tmp/ignored.json");
        j.engine(&engine);
        let doc = j.document();
        macro_rules! check {
            ($($counters:ident => $snapshot:ident),*) => {$(
                check_family($counters::TABLE, $counters::snapshot, $snapshot::delta, doc);
            )*};
        }
        check!(
            FabricMetrics => MetricsSnapshot,
            FaultCounters => FaultSnapshot,
            PoolCounters => PoolSnapshot,
            IncrementalCounters => IncrementalSnapshot,
            OverloadCounters => OverloadSnapshot,
            PlanCounters => PlanSnapshot,
            IntegrityCounters => IntegritySnapshot
        );
        let trace = engine.handle().trace_snapshot();
        assert_member_keys::<TraceSnapshot>(doc, &trace.entries());
    }

    #[test]
    fn plan_section_round_trips() {
        let mut j = BenchJson::to_path("t", "/tmp/ignored.json");
        let snap = wukong_obs::PlanSnapshot {
            cache_hits: 12,
            cache_misses: 3,
            feedback_firings: 40,
            drifted_firings: 9,
            replans: 2,
            delta_rebuilds: 1,
            mode_inplace: 35,
            mode_forkjoin: 5,
            edges_traversed: 7_000,
        };
        j.counter_set(&snap);
        let p = j.document().get("plan").unwrap();
        assert_eq!(p.get("cache_hits").and_then(Json::as_u64), Some(12));
        assert_eq!(p.get("cache_misses").and_then(Json::as_u64), Some(3));
        assert_eq!(p.get("feedback_firings").and_then(Json::as_u64), Some(40));
        assert_eq!(p.get("drifted_firings").and_then(Json::as_u64), Some(9));
        assert_eq!(p.get("replans").and_then(Json::as_u64), Some(2));
        assert_eq!(p.get("delta_rebuilds").and_then(Json::as_u64), Some(1));
        assert_eq!(p.get("mode_inplace").and_then(Json::as_u64), Some(35));
        assert_eq!(p.get("mode_forkjoin").and_then(Json::as_u64), Some(5));
        assert_eq!(p.get("edges_traversed").and_then(Json::as_u64), Some(7_000));
        // The serialized document parses back byte-identically.
        let text = j.document().to_string_pretty();
        let parsed = wukong_obs::json::parse(&text).expect("round-trips");
        assert_eq!(&parsed, j.document());
    }

    #[test]
    fn overload_section_round_trips() {
        let mut j = BenchJson::to_path("t", "/tmp/ignored.json");
        let snap = wukong_obs::OverloadSnapshot {
            sheds_drop_oldest: 4,
            tuples_shed: 320,
            admission_rejected: 2,
            state_transitions: 3,
            catchup_replays: 1,
            catchup_replayed_tuples: 320,
            degraded_firings: 9,
            ..Default::default()
        };
        j.counter_set(&snap);
        let o = j.document().get("overload").unwrap();
        assert_eq!(o.get("sheds_drop_oldest").and_then(Json::as_u64), Some(4));
        assert_eq!(o.get("tuples_shed").and_then(Json::as_u64), Some(320));
        assert_eq!(o.get("admission_rejected").and_then(Json::as_u64), Some(2));
        assert_eq!(o.get("state_transitions").and_then(Json::as_u64), Some(3));
        assert_eq!(o.get("catchup_replays").and_then(Json::as_u64), Some(1));
        assert_eq!(
            o.get("catchup_replayed_tuples").and_then(Json::as_u64),
            Some(320)
        );
        assert_eq!(o.get("degraded_firings").and_then(Json::as_u64), Some(9));
        assert_eq!(o.get("sheds_sampled").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn incremental_section_round_trips() {
        let mut j = BenchJson::to_path("t", "/tmp/ignored.json");
        let snap = wukong_obs::IncrementalSnapshot {
            incremental_firings: 30,
            rebuild_firings: 1,
            fallback_firings: 2,
            rows_reused: 900,
            rows_recomputed: 120,
            rows_retracted: 110,
        };
        j.counter_set(&snap);
        let i = j.document().get("incremental").unwrap();
        assert_eq!(
            i.get("incremental_firings").and_then(Json::as_u64),
            Some(30)
        );
        assert_eq!(i.get("rebuild_firings").and_then(Json::as_u64), Some(1));
        assert_eq!(i.get("fallback_firings").and_then(Json::as_u64), Some(2));
        assert_eq!(i.get("rows_reused").and_then(Json::as_u64), Some(900));
        assert_eq!(i.get("rows_recomputed").and_then(Json::as_u64), Some(120));
        assert_eq!(i.get("rows_retracted").and_then(Json::as_u64), Some(110));
    }

    #[test]
    fn pool_section_round_trips() {
        let mut j = BenchJson::to_path("t", "/tmp/ignored.json");
        let snap = wukong_obs::PoolSnapshot {
            tasks: 40,
            regions: 5,
            steals: 3,
            max_queue_depth: 16,
            serial_busy_ns: 1_000,
            modeled_busy_ns: 300,
            region_wall_ns: 1_200,
        };
        j.counter_set(&snap);
        let p = j.document().get("pool").unwrap();
        assert_eq!(p.get("tasks").and_then(Json::as_u64), Some(40));
        assert_eq!(p.get("regions").and_then(Json::as_u64), Some(5));
        assert_eq!(p.get("steals").and_then(Json::as_u64), Some(3));
        assert_eq!(p.get("max_queue_depth").and_then(Json::as_u64), Some(16));
        assert_eq!(p.get("serial_busy_ns").and_then(Json::as_u64), Some(1_000));
        assert_eq!(p.get("modeled_busy_ns").and_then(Json::as_u64), Some(300));
        assert_eq!(p.get("region_wall_ns").and_then(Json::as_u64), Some(1_200));
    }

    #[test]
    fn integrity_section_round_trips() {
        let mut j = BenchJson::to_path("t", "/tmp/ignored.json");
        let snap = wukong_obs::IntegritySnapshot {
            checksum_fail_batch: 1,
            checksum_fail_message: 5,
            checksum_fail_checkpoint: 2,
            scrub_violations: 0,
            quarantines: 3,
            rebuilds: 3,
            rebuild_ns: 42_000,
        };
        j.counter_set(&snap);
        let i = j.document().get("integrity").unwrap();
        assert_eq!(i.get("checksum_fail_batch").and_then(Json::as_u64), Some(1));
        assert_eq!(
            i.get("checksum_fail_message").and_then(Json::as_u64),
            Some(5)
        );
        assert_eq!(
            i.get("checksum_fail_checkpoint").and_then(Json::as_u64),
            Some(2)
        );
        assert_eq!(i.get("scrub_violations").and_then(Json::as_u64), Some(0));
        assert_eq!(i.get("quarantines").and_then(Json::as_u64), Some(3));
        assert_eq!(i.get("rebuilds").and_then(Json::as_u64), Some(3));
        assert_eq!(i.get("rebuild_ns").and_then(Json::as_u64), Some(42_000));
    }

    #[test]
    fn faults_and_recovery_sections_round_trip() {
        let mut j = BenchJson::to_path("t", "/tmp/ignored.json");
        let snap = wukong_obs::FaultSnapshot {
            msgs_dropped: 7,
            retransmits: 7,
            ..Default::default()
        };
        j.counter_set(&snap);
        let rep = RecoveryReport {
            recovery_ms: 1.25,
            replayed_batches: 40,
            replayed_queries: 2,
            dedup_suppressed: 3,
            restored_stable_sn: 9,
            integrity_violations: 1,
            quarantined_shards: 2,
            replayed_batch_ids: vec![
                wukong_obs::BatchId::mint(0, 100),
                wukong_obs::BatchId::mint(1, 200),
            ],
        };
        j.recovery(&rep);
        let doc = j.document();
        let f = doc.get("faults").unwrap();
        assert_eq!(f.get("msgs_dropped").and_then(Json::as_u64), Some(7));
        assert_eq!(f.get("rpc_timeouts").and_then(Json::as_u64), Some(0));
        let r = doc.get("recovery").unwrap();
        assert_eq!(r.get("replayed_batches").and_then(Json::as_u64), Some(40));
        assert_eq!(r.get("recovery_ms").and_then(Json::as_f64), Some(1.25));
        assert_eq!(r.get("restored_stable_sn").and_then(Json::as_u64), Some(9));
        assert_eq!(
            r.get("integrity_violations").and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(r.get("quarantined_shards").and_then(Json::as_u64), Some(2));
        let ids = r.get("replayed_batch_ids").and_then(Json::as_arr).unwrap();
        assert_eq!(ids.len(), 2);
        assert_eq!(ids[0].as_str(), Some("s0@100"));
        assert_eq!(ids[1].as_str(), Some("s1@200"));
    }
}
/// Formats milliseconds the way the paper's tables do: two decimals below
/// 10 ms, one decimal below 100, integral (with thousands separators)
/// above.
pub fn fmt_ms(ms: f64) -> String {
    if ms < 0.1 {
        format!("{ms:.3}")
    } else if ms < 10.0 {
        format!("{ms:.2}")
    } else if ms < 100.0 {
        format!("{ms:.1}")
    } else {
        let n = ms.round() as i64;
        let s = n.to_string();
        let mut out = String::new();
        for (i, c) in s.chars().enumerate() {
            if i > 0 && (s.len() - i).is_multiple_of(3) {
                out.push(',');
            }
            out.push(c);
        }
        out
    }
}

/// Prints a table header row plus a separator.
pub fn print_header(title: &str, cols: &[&str]) {
    println!("\n=== {title} ===");
    print_row(cols.iter().map(|s| s.to_string()).collect());
    println!("{}", "-".repeat(cols.len() * 14));
}

/// Prints one table row with fixed-width columns.
pub fn print_row(cells: Vec<String>) {
    let row: Vec<String> = cells.iter().map(|c| format!("{c:>13}")).collect();
    println!("{}", row.join(" "));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formats_match_paper_style() {
        assert_eq!(fmt_ms(0.13), "0.13");
        assert_eq!(fmt_ms(0.013), "0.013");
        assert_eq!(fmt_ms(30.38), "30.4");
        assert_eq!(fmt_ms(1984.4), "1,984");
        assert_eq!(fmt_ms(155.0), "155");
    }
}
