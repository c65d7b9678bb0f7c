//! The three workloads and the seeded inputs they run on.
//!
//! Every input — stored graph, stream timeline, standing queries and the
//! one-shot arrival schedule — is a pure function of the workload and the
//! seed. The engine receives only the generated inputs.

use std::sync::Arc;
use wukong_benchdata::lsbench::{continuous_query, oneshot_query};
use wukong_benchdata::{LsBench, LsBenchConfig, TimedTuple};
use wukong_core::EngineConfig;
use wukong_rdf::{StringServer, Timestamp, Triple};
use wukong_stream::StreamSchema;

/// Mini-batch interval of every LSBench stream, ms. `advance_time` and
/// `fire_ready` run at each multiple of it.
pub const BATCH_MS: u64 = 100;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Ingest-bound: 96 selective standing queries on 8 nodes, 1 lane.
    Firehose,
    /// Executor-bound: non-selective standing joins on 1 node, 1 lane.
    Joins,
    /// Reads beside writes: open-loop one-shots next to the stream on 8
    /// nodes, 1 lane.
    OneshotMix,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 3] = [Workload::Firehose, Workload::Joins, Workload::OneshotMix];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Firehose => "firehose",
            Workload::Joins => "joins",
            Workload::OneshotMix => "oneshot-mix",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Data size of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's scale: ~1.54 M stored triples.
    Paper,
    /// A few thousand triples, for the benchmark's own tests.
    Tiny,
}

/// Everything that defines one workload at one scale.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Which workload.
    pub workload: Workload,
    /// Simulated cluster nodes.
    pub nodes: usize,
    /// Worker lanes per node.
    pub lanes: usize,
    /// LSBench generator parameters (the seed is set per run).
    pub ls: LsBenchConfig,
    /// Stream time replayed closed-loop before the open-loop phase, ms.
    pub replay_ms: Timestamp,
    /// Standing continuous queries: `(class, variants)`.
    pub standing: Vec<(usize, usize)>,
    /// One-shot arrivals per second in the open-loop phase.
    pub oneshot_rate: f64,
    /// One arrival cycle of one-shot classes as `(class, arrivals)`
    /// (see [`MIX_CYCLE`]).
    pub oneshot_cycle: &'static [(usize, usize)],
}

/// `oneshot-mix`'s one-shot classes in one arrival cycle of 100, which
/// a 20 s run at 10/s replays twice. Every cycle holds exactly this
/// multiset in a seeded order, so the class shares — and therefore which
/// class each percentile lands in — are the same for every seed. The
/// heavy S4, S1 and S6 are 6%: the one-shot p95 sits among them, and
/// they are rare enough that the driver is idle for most arrivals even
/// when the host runs at half speed. S2 and S5 are 34% and faster than
/// S3, which is 60%, so the one-shot p50 sits well inside S3.
pub const MIX_CYCLE: &[(usize, usize)] = &[(4, 1), (1, 2), (6, 3), (2, 17), (5, 17), (3, 60)];

/// The light read probe on `firehose` and `joins`: the selective S3
/// alone, so every end-to-end metric exists on every workload and the
/// one-shot median is S3's.
pub const PROBE_CYCLE: &[(usize, usize)] = &[(3, 1)];

/// Probe arrivals per second: 400 in a 20 s run, so 20 lie beyond the
/// p95, at well under 1% of the driver's time.
pub const PROBE_RATE: f64 = 20.0;

impl Spec {
    /// The workload's definition at `scale`.
    pub fn new(workload: Workload, scale: Scale) -> Spec {
        let ls = match scale {
            Scale::Paper => LsBenchConfig {
                users: 20_000,
                posts_per_user: 20,
                likes_per_user: 20,
                rate_scale: 0.05,
                ..LsBenchConfig::default()
            },
            Scale::Tiny => LsBenchConfig {
                users: 400,
                rate_scale: 0.005,
                ..LsBenchConfig::default()
            },
        };
        match workload {
            Workload::Firehose => Spec {
                workload,
                nodes: 8,
                lanes: 1,
                ls: LsBenchConfig {
                    // Raised until ingest dominates while the driver stays
                    // under a quarter busy on a 2-core host.
                    rate_scale: ls.rate_scale * 4.0,
                    ..ls
                },
                replay_ms: 6_000,
                standing: vec![(1, 32), (2, 32), (3, 32)],
                oneshot_rate: PROBE_RATE,
                oneshot_cycle: PROBE_CYCLE,
            },
            Workload::Joins => Spec {
                workload,
                nodes: 1,
                lanes: 1,
                ls: LsBenchConfig {
                    // Lowered so the driver is under a quarter busy: at half
                    // busy the one-shot median sits on the edge between
                    // arrivals that wait for a firing step and arrivals
                    // that do not, and flips from run to run.
                    rate_scale: ls.rate_scale * 0.35,
                    ..ls.clone()
                },
                // L5's PO window is 10 s: replay fills it.
                replay_ms: 10_000,
                standing: vec![(4, 1), (5, 1), (6, 1)],
                oneshot_rate: PROBE_RATE,
                oneshot_cycle: PROBE_CYCLE,
            },
            Workload::OneshotMix => Spec {
                workload,
                nodes: 8,
                // One lane, like `firehose`: with two lanes every region
                // waits for both vCPUs of a shared 2-vCPU host, and a
                // stolen vCPU slowed the firing step 2.5-fold.
                lanes: 1,
                ls,
                replay_ms: 10_000,
                standing: vec![(1, 16), (2, 16), (3, 16)],
                // The fewest arrivals that carry a p95 in a 20 s run;
                // more would leave the driver busy enough to move the
                // one-shot p50 off S3.
                oneshot_rate: 10.0,
                oneshot_cycle: MIX_CYCLE,
            },
        }
    }

    /// The engine configuration: the preset for the node count with only
    /// `nodes` and `worker_threads` set.
    pub fn engine_config(&self) -> EngineConfig {
        let preset = if self.nodes == 1 {
            EngineConfig::single_node()
        } else {
            EngineConfig::cluster(self.nodes)
        };
        preset.with_workers(self.lanes)
    }
}

/// One scheduled one-shot query.
#[derive(Debug, Clone)]
pub struct OneShot {
    /// Due time, µs after the start of the open-loop phase.
    pub due_us: u64,
    /// Query class: `n` is Sn (1-6).
    pub class: usize,
    /// The query text.
    pub text: String,
}

/// A workload's generated inputs.
pub struct Inputs {
    /// The string server every generated name is interned in.
    pub strings: Arc<StringServer>,
    /// Stream schemas in registration order.
    pub schemas: Vec<StreamSchema>,
    /// The stored graph.
    pub stored: Vec<Triple>,
    /// Stream tuples over `[0, replay_ms + open_ms]`, time-ordered.
    pub timeline: Vec<TimedTuple>,
    /// Standing continuous queries, in registration order.
    pub standing: Vec<String>,
    /// Class label (`L1`–`L6`) of each standing query.
    pub standing_class: Vec<String>,
    /// One-shot arrivals, in due order.
    pub oneshots: Vec<OneShot>,
}

/// Generates the inputs of `spec` for `seed`, with an open-loop phase of
/// `open_ms` milliseconds.
pub fn generate(spec: &Spec, seed: u64, open_ms: u64) -> Inputs {
    let strings = Arc::new(StringServer::new());
    let mut bench = LsBench::new(spec.ls.clone().with_seed(seed), Arc::clone(&strings));
    let stored = bench.stored_triples();
    let timeline = bench.generate(0, spec.replay_ms + open_ms);
    let (standing, standing_class) = spec
        .standing
        .iter()
        .flat_map(|&(class, variants)| (0..variants).map(move |v| (class, v)))
        .map(|(class, v)| (continuous_query(&bench, class, v), format!("L{class}")))
        .unzip();
    let mut rng = SplitMix(seed ^ 0x5EED_0F0E_5407);
    let count = (spec.oneshot_rate * open_ms as f64 / 1_000.0).floor() as u64;
    let mut cycle: Vec<usize> = spec
        .oneshot_cycle
        .iter()
        .flat_map(|&(class, n)| std::iter::repeat_n(class, n))
        .collect();
    let oneshots = (0..count)
        .map(|i| {
            let k = (i as usize) % cycle.len();
            if k == 0 {
                rng.shuffle(&mut cycle);
            }
            let class = cycle[k];
            let variant = rng.below(spec.ls.users as u64) as usize;
            // Jittered-periodic arrivals: a fixed count per run, each at
            // a seeded phase within its slot, so arrivals land anywhere
            // relative to the batch boundaries.
            let phase = rng.below(1_000_000) as f64 / 1e6;
            OneShot {
                due_us: ((i as f64 + phase) * 1e6 / spec.oneshot_rate) as u64,
                class,
                text: oneshot_query(&bench, class, variant),
            }
        })
        .collect();
    Inputs {
        strings,
        schemas: bench.schemas(),
        stored,
        timeline,
        standing,
        standing_class,
        oneshots,
    }
}

/// SplitMix64: a tiny seeded generator for schedule decisions.
pub struct SplitMix(pub u64);

impl SplitMix {
    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `[0, n)` (`n` ≥ 1).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}
