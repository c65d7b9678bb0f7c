//! Deployment set-up, the closed-loop replay phase and the open-loop
//! phase.
//!
//! The open loop replays the stream timeline in real time: a tuple with
//! timestamp `t` is due `t - replay_ms` milliseconds after the phase
//! starts, `advance_time` and `fire_ready` are due at every batch
//! boundary, and one-shots are due on their arrival schedule. Each result
//! is timed from when it was due, not from when the driver got to it, so
//! a stall in the driver shows up in every result it delays.

use crate::oracle::digest;
use crate::spans::Spans;
use crate::workload::{generate, Inputs, Spec, BATCH_MS};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use wukong_core::{ContinuousId, Firing, WukongS};
use wukong_query::exec::{ExecContext, StringLiteralResolver, WindowInstance};
use wukong_query::{execute, parse_query, plan_query, ResultSet};
use wukong_rdf::{StreamId, Timestamp};

/// A deployed workload: the engine with stored data loaded and every
/// stream and standing query registered.
pub struct Deployment {
    /// The engine under test.
    pub engine: WukongS,
    /// The generated inputs.
    pub inputs: Inputs,
    /// Registered streams, in schema order.
    pub streams: Vec<StreamId>,
    /// Registered standing queries, parallel to `inputs.standing`.
    pub queries: Vec<ContinuousId>,
}

/// Generates the inputs and deploys them: the work `setup_s` times.
pub fn deploy(spec: &Spec, seed: u64, open_ms: u64) -> Deployment {
    let inputs = generate(spec, seed, open_ms);
    let engine = WukongS::with_strings(spec.engine_config(), inputs.strings.clone());
    engine.load_base(inputs.stored.iter().copied());
    let streams = inputs
        .schemas
        .iter()
        .map(|s| engine.register_stream(s.clone()))
        .collect();
    let queries = inputs
        .standing
        .iter()
        .map(|q| {
            engine
                .register_continuous(q)
                .expect("generated standing queries register")
        })
        .collect();
    Deployment {
        engine,
        inputs,
        streams,
        queries,
    }
}

/// The engine calls the benchmark times, for per-call statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Call {
    /// `WukongS::ingest`.
    Ingest,
    /// `WukongS::advance_time`.
    AdvanceTime,
    /// `WukongS::fire_ready`.
    FireReady,
    /// `WukongS::one_shot`.
    OneShot,
}

impl Call {
    /// Every call kind.
    pub const ALL: [Call; 4] = [
        Call::Ingest,
        Call::AdvanceTime,
        Call::FireReady,
        Call::OneShot,
    ];

    /// Metric/span name.
    pub fn name(self) -> &'static str {
        match self {
            Call::Ingest => "ingest",
            Call::AdvanceTime => "advance_time",
            Call::FireReady => "fire_ready",
            Call::OneShot => "one_shot",
        }
    }
}

/// Per-class timings of the traced query-layer re-run (µs per call).
#[derive(Debug, Default, Clone)]
pub struct QueryLayer {
    /// `parse_query` µs per call.
    pub parse_us: Vec<f64>,
    /// `plan_query` µs per call.
    pub plan_us: Vec<f64>,
    /// `execute` µs per call.
    pub execute_us: Vec<f64>,
    /// Rows the re-runs produced.
    pub rows: u64,
}

/// Traced-run instrumentation: per-call times and spans. Absent in
/// end-to-end runs, which therefore record no spans.
#[derive(Default)]
pub struct Trace {
    /// The span store.
    pub spans: Spans,
    /// Per-call durations, ns, keyed by call kind (open-loop phase).
    pub calls: BTreeMap<Call, Vec<u64>>,
    /// Query-layer re-run timings, keyed by class.
    pub query: BTreeMap<String, QueryLayer>,
    /// Firings emitted by traced `fire_ready` calls in the open loop.
    pub firings: u64,
}

/// Runs `f` as call `call`, timed when tracing. Every call but `ingest`
/// also gets a span; `ingest` calls are timed one by one but spanned per
/// millisecond (the `tuples` span), which keeps the span file small.
fn call<R>(trace: &mut Option<Trace>, call: Call, key: u64, f: impl FnOnce() -> R) -> R {
    let Some(t) = trace else { return f() };
    let span = (call != Call::Ingest).then(|| t.spans.enter(call.name(), key));
    let t0 = Instant::now();
    let r = f();
    let ns = t0.elapsed().as_nanos() as u64;
    if let Some(s) = span {
        t.spans.exit(s);
    }
    t.calls.entry(call).or_default().push(ns);
    r
}

/// One emitted firing, kept for digesting after the timed phases.
pub struct Fired {
    /// Index of the standing query (into `Inputs::standing`).
    pub query: usize,
    /// End of the fired windows.
    pub window_end: Timestamp,
    /// [`digest`] of the rows as emitted.
    pub digest: u64,
    /// Engine-reported latency (compute plus charged network), ms.
    pub latency_ms: f64,
    /// Whether the result carries a degraded or quarantine marker.
    pub marked: bool,
    /// Emitted in the open-loop phase.
    pub open: bool,
}

/// One answered (or refused) one-shot.
pub struct Answered {
    /// Index into `Inputs::oneshots`.
    pub index: usize,
    /// Row [`digest`], engine-reported ms and marker flag, or the error
    /// text.
    pub result: Result<(u64, f64, bool), String>,
    /// Stable VTS entry of every stream when it ran.
    pub stable: Vec<Timestamp>,
}

/// A driver stall injected for tests: at `at_ms` into the open loop the
/// driver sleeps `dur` before its next event. The engine is untouched.
#[derive(Debug, Clone, Copy)]
pub struct Stall {
    /// Open-loop time the stall happens at, ms.
    pub at_ms: u64,
    /// Stall length.
    pub dur: Duration,
}

/// What the replay and open-loop phases measured.
#[derive(Default)]
pub struct Measured {
    /// Tuples fed in the replay phase.
    pub replay_tuples: u64,
    /// Wall time of the replay phase, s.
    pub replay_s: f64,
    /// Per replay step (one batch boundary): tuples fed over the step's
    /// wall time, tuples/s.
    pub replay_steps: Vec<f64>,
    /// Per `fire_ready` call that emitted firings: ms from the due time
    /// of its earliest window end to its return.
    pub fire_ms: Vec<f64>,
    /// Per one-shot: ms from its due time to its result.
    pub oneshot_ms: Vec<f64>,
    /// Per scheduled event: ms the driver started it after it was due.
    pub lag_ms: Vec<f64>,
    /// Open-loop time spent inside engine calls, ns.
    pub busy_ns: u64,
    /// Open-loop wall time, ns.
    pub open_ns: u64,
    /// Every firing of both phases.
    pub firings: Vec<Fired>,
    /// Every one-shot of the open loop.
    pub answers: Vec<Answered>,
}

fn is_marked(r: &ResultSet) -> bool {
    r.degraded.is_some() || !r.unreachable_shards.is_empty() || !r.quarantined_shards.is_empty()
}

fn keep(dep: &Deployment, out: &mut Measured, firings: Vec<Firing>, open: bool) {
    for f in firings {
        let query = dep
            .queries
            .iter()
            .position(|q| *q == f.query)
            .expect("firings come from registered queries");
        out.firings.push(Fired {
            query,
            window_end: f.window_end,
            marked: is_marked(&f.results),
            digest: digest(&f.results.rows),
            latency_ms: f.latency_ms,
            open,
        });
    }
}

/// Replays stream time `[0, spec.replay_ms]` as fast as the engine takes
/// it, firing at every batch boundary; this fills every window.
pub fn replay(dep: &Deployment, spec: &Spec, trace: &mut Option<Trace>, out: &mut Measured) {
    let e = &dep.engine;
    let tl = &dep.inputs.timeline;
    let t0 = Instant::now();
    let mut i = 0;
    for b in (BATCH_MS..=spec.replay_ms).step_by(BATCH_MS as usize) {
        let step = trace.as_mut().map(|t| t.spans.enter("replay.step", b));
        let (t1, i1) = (Instant::now(), i);
        while i < tl.len() && tl[i].timestamp <= b {
            let t = &tl[i];
            e.ingest(dep.streams[t.stream.0 as usize], t.triple, t.timestamp);
            i += 1;
        }
        e.advance_time(b);
        let fired = e.fire_ready();
        if let (Some(t), Some(s)) = (trace.as_mut(), step) {
            t.spans.exit(s);
        }
        out.replay_steps
            .push((i - i1) as f64 / t1.elapsed().as_secs_f64());
        keep(dep, out, fired, false);
    }
    out.replay_tuples = i as u64;
    out.replay_s = t0.elapsed().as_secs_f64();
}

/// How long before a one-shot the driver stops sleeping and spins, so a
/// sleep's wake-up delay never counts as the one-shot's latency. Only
/// one-shots spin: their median is a fraction of a millisecond, while a
/// wake-up delay is noise next to a batch boundary's milliseconds, and
/// spinning before every tuple would keep a core busy.
const SPIN: Duration = Duration::from_micros(300);

/// Sleeps until `due`, spinning through the last `SPIN` if `spin`.
fn wait_until(due: Instant, spin: bool) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if !spin {
            std::thread::sleep(left);
        } else if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// A scheduled open-loop event. Variant order breaks due-time ties:
/// tuples of a millisecond, then its boundary, then one-shots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    /// The tuples stamped with this ms.
    Tuples(Timestamp),
    /// The batch boundary at this ms.
    Boundary(Timestamp),
    /// The one-shot with this index.
    OneShot(usize),
}

/// Runs the open-loop phase for `open_ms` of stream time after
/// `spec.replay_ms`.
pub fn open_loop(
    dep: &Deployment,
    spec: &Spec,
    open_ms: u64,
    stall: Option<Stall>,
    trace: &mut Option<Trace>,
    out: &mut Measured,
) {
    let e = &dep.engine;
    let tl = &dep.inputs.timeline;
    let shots = &dep.inputs.oneshots;
    let start_ms = spec.replay_ms;
    let end_ms = start_ms + open_ms;
    let mut ti = tl.partition_point(|t| t.timestamp <= start_ms);
    let mut next_boundary = start_ms + BATCH_MS;
    let mut si = 0;
    let mut stall = stall;
    // Wall-clock origin of the schedule. The traced query-layer re-run
    // pauses the schedule by moving it forward, so re-runs never make
    // later events late.
    let mut t0 = Instant::now();
    let phase0 = t0;
    let due_of_ms = |t0: Instant, ms: Timestamp| t0 + Duration::from_millis(ms - start_ms);
    loop {
        // The earliest pending event and its due time (µs into the phase).
        let mut next: Option<(u64, Event)> = None;
        let mut offer = |due_us: u64, ev: Event| {
            if next.is_none_or(|(d, n)| (due_us, ev) < (d, n)) {
                next = Some((due_us, ev));
            }
        };
        if ti < tl.len() && tl[ti].timestamp <= end_ms {
            let ts = tl[ti].timestamp;
            offer((ts - start_ms) * 1_000, Event::Tuples(ts));
        }
        if next_boundary <= end_ms {
            offer(
                (next_boundary - start_ms) * 1_000,
                Event::Boundary(next_boundary),
            );
        }
        if si < shots.len() {
            offer(shots[si].due_us, Event::OneShot(si));
        }
        let Some((due_us, ev)) = next else { break };
        let due = t0 + Duration::from_micros(due_us);
        if let Some(s) = stall {
            if due_us >= s.at_ms * 1_000 {
                std::thread::sleep(s.dur);
                stall = None;
            }
        }
        wait_until(due, matches!(ev, Event::OneShot(_)));
        let started = Instant::now();
        out.lag_ms
            .push(started.saturating_duration_since(due).as_secs_f64() * 1e3);
        match ev {
            Event::Tuples(ts) => {
                let g = trace.as_mut().map(|t| t.spans.enter("tuples", ts));
                while ti < tl.len() && tl[ti].timestamp == ts {
                    let t = &tl[ti];
                    let sid = dep.streams[t.stream.0 as usize];
                    call(trace, Call::Ingest, ts, || e.ingest(sid, t.triple, ts));
                    ti += 1;
                }
                if let (Some(t), Some(g)) = (trace.as_mut(), g) {
                    t.spans.exit(g);
                }
            }
            Event::Boundary(b) => {
                let step = trace.as_mut().map(|t| t.spans.enter("step", b));
                call(trace, Call::AdvanceTime, b, || e.advance_time(b));
                let fired = call(trace, Call::FireReady, b, || e.fire_ready());
                let returned = Instant::now();
                if let Some(we) = fired.iter().map(|f| f.window_end).min() {
                    let due = due_of_ms(t0, we.max(start_ms));
                    out.fire_ms
                        .push(returned.saturating_duration_since(due).as_secs_f64() * 1e3);
                }
                if let (Some(t), Some(step)) = (trace.as_mut(), step) {
                    t.spans.exit(step);
                    t.firings += fired.len() as u64;
                    let paused = Instant::now();
                    rerun_queries(dep, &fired, t);
                    t0 += paused.elapsed();
                }
                keep(dep, out, fired, true);
                next_boundary += BATCH_MS;
            }
            Event::OneShot(i) => {
                let res = call(trace, Call::OneShot, i as u64, || {
                    e.one_shot(&shots[i].text)
                });
                let returned = Instant::now();
                out.oneshot_ms
                    .push(returned.saturating_duration_since(due).as_secs_f64() * 1e3);
                let stable = dep.streams.iter().map(|s| e.stable_ts(*s)).collect();
                out.answers.push(Answered {
                    index: i,
                    result: res
                        .map(|(r, ms)| (digest(&r.rows), ms, is_marked(&r)))
                        .map_err(|err| err.to_string()),
                    stable,
                });
                si += 1;
            }
        }
        out.busy_ns += started.elapsed().as_nanos() as u64;
    }
    out.open_ns = phase0.elapsed().as_nanos() as u64;
}

/// The traced query layer: re-runs every firing's query through
/// `parse_query`, `plan_query` and `execute` over `NodeAccess` on the
/// live cluster, at the firing's windows and the current stable
/// snapshot, each call in its own span.
fn rerun_queries(dep: &Deployment, fired: &[Firing], t: &mut Trace) {
    let e = &dep.engine;
    let access = wukong_core::access::NodeAccess::new(e.cluster(), wukong_net::NodeId(0));
    let lit = StringLiteralResolver(e.strings());
    let sn = e.stable_sn();
    for f in fired {
        let qi = dep
            .queries
            .iter()
            .position(|q| *q == f.query)
            .expect("registered");
        let key = qi as u64;
        let root = t.spans.enter("query.rerun", key);
        let s = t.spans.enter("query.parse", key);
        let q = parse_query(e.strings(), &dep.inputs.standing[qi]).expect("standing queries parse");
        let parse_ns = t.spans.exit(s);
        let windows = q
            .streams
            .iter()
            .map(|(name, spec)| WindowInstance {
                stream: dep.streams[dep
                    .inputs
                    .schemas
                    .iter()
                    .position(|s| s.name == *name)
                    .expect("known stream")],
                lo: f.window_end.saturating_sub(spec.range_ms) + 1,
                hi: f.window_end,
            })
            .collect();
        let ctx = ExecContext { sn, windows };
        let s = t.spans.enter("query.plan", key);
        let plan = plan_query(&q, &access, &ctx);
        let plan_ns = t.spans.exit(s);
        let s = t.spans.enter("query.execute", key);
        let mut timer = wukong_net::TaskTimer::start();
        let rows = execute(&q, &plan, &ctx, &access, &lit, &mut timer)
            .rows
            .len();
        let execute_ns = t.spans.exit(s);
        t.spans.exit(root);
        let ql = t
            .query
            .entry(dep.inputs.standing_class[qi].clone())
            .or_default();
        ql.parse_us.push(parse_ns as f64 / 1e3);
        ql.plan_us.push(plan_ns as f64 / 1e3);
        ql.execute_us.push(execute_ns as f64 / 1e3);
        ql.rows += rows as u64;
    }
}
