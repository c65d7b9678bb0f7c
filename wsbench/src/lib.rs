//! The repository benchmark: three open-loop LSBench workloads driven
//! through `wukong_core::WukongS` from one process.
//!
//! `wsbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! generates the workload's inputs from the seed, sets the deployment up
//! several times (`setup_s` is the median), replays the stream prefix
//! closed-loop after each set-up, replays the next `<s>` seconds of the
//! timeline open-loop in real time, checks the results against a
//! relational oracle, and prints one JSON object as its last line. With
//! `--trace 1` it prints the per-layer metrics instead and writes the
//! benchmark's spans under `wsbench/out/`. See `wsbench/README.md`.

pub mod driver;
mod layers;
mod oracle;
pub mod spans;
pub mod stats;
pub mod workload;

use driver::{deploy, open_loop, replay, Deployment, Measured, Trace};
use stats::{geomean, median, percentile};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use workload::{Scale, Spec, Workload};

/// Deployments set up and replayed per run: `setup_s` is the median
/// set-up and `replay_tps` the median step rate over every replay.
pub const SETUPS: usize = 3;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Open-loop phase length, s.
    pub seconds: u64,
    /// Per-layer traced run instead of the end-to-end run.
    pub trace: bool,
}

/// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
pub fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(k) = it.next() {
        let v = it.next().ok_or_else(|| format!("{k} needs a value"))?;
        kv.insert(k.as_str(), v.as_str());
    }
    let get = |k: &str| kv.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let workload = Workload::parse(get("--workload")?).ok_or_else(|| {
        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("--workload must be one of {}", names.join(", "))
    })?;
    let num = |k: &str| -> Result<u64, String> {
        get(k)?
            .parse()
            .map_err(|_| format!("{k} takes a whole number"))
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace takes 0 or 1".into()),
    };
    if let Some(k) = kv
        .keys()
        .find(|k| !["--workload", "--seed", "--seconds", "--trace"].contains(k))
    {
        return Err(format!("unknown argument {k}"));
    }
    Ok(Args {
        workload,
        seed: num("--seed")?,
        seconds,
        trace,
    })
}

/// `WUKONG_*` variables in the environment. The engine presets read
/// several of them, so any stray export would measure another program.
pub fn wukong_env() -> Vec<String> {
    std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("WUKONG_"))
        .collect()
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result line.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// No failure of any kind.
    pub correct: bool,
    /// Firings and one-shots attempted.
    pub attempted: u64,
    /// Of those, failed, refused, degraded or wrong.
    pub failed: u64,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Human-readable context lines printed before the result line.
    pub notes: Vec<String>,
}

impl Report {
    /// Adds a metric. A value that is not finite cannot be compared
    /// with any other run, so it makes the run fail instead.
    fn put(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
    ) -> Result<(), String> {
        let name = name.into();
        if !value.is_finite() {
            return Err(format!("{name} is {value}, not a number"));
        }
        self.metrics.push(Metric { name, value, unit });
        Ok(())
    }

    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// Peak resident memory of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak_rss_mb: /proc/self/status: {e}"))?;
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "peak_rss_mb: no VmHWM line in /proc/self/status".into())
}

/// The commit the checkout came from, read from `.git` in the working
/// directory without leaving it; `unknown` outside a git checkout.
pub fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .ok()
            .or_else(|| {
                std::fs::read_to_string(".git/packed-refs")
                    .ok()
                    .and_then(|p| {
                        p.lines()
                            .find(|l| l.ends_with(r))
                            .map(|l| l.split(' ').next().unwrap_or("").to_string())
                    })
            })
            .map_or("unknown".into(), |s| s.trim().to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

/// Classes and engine-reported latency medians (ms) of one run: the
/// standing classes from `Firing::latency_ms`, one-shot classes from
/// `one_shot`'s ms.
fn modeled_medians(dep: &Deployment, m: &Measured) -> BTreeMap<String, f64> {
    let mut by: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for f in m.firings.iter().filter(|f| f.open) {
        let class = dep.inputs.standing_class[f.query].clone();
        by.entry(class).or_default().push(f.latency_ms);
    }
    for a in &m.answers {
        if let Ok((_, ms, _)) = &a.result {
            let class = format!("S{}", dep.inputs.oneshots[a.index].class);
            by.entry(class).or_default().push(*ms);
        }
    }
    by.into_iter()
        .filter_map(|(c, v)| median(&v).map(|m| (c, m)))
        .collect()
}

/// Runs one workload end to end (or traced) and returns its report. An
/// `Err` means the run could not produce a result at all.
pub fn run(args: &Args, scale: Scale) -> Result<Report, String> {
    let spec = Spec::new(args.workload, scale);
    let open_ms = args.seconds * 1_000;
    let mut rep = Report::default();
    rep.notes.push(format!(
        "run: workload={} seed={} seconds={} trace={} rev={} nproc={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        git_rev(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    ));

    // Set-up and replay, several times: `setup_s` is the median set-up,
    // `replay_tps` the median step rate over every replay, and the last
    // deployment goes on to the open loop. A traced run traces only the
    // last replay; the one before it (the first runs on a cold heap) is
    // the untraced baseline its overhead is reported against.
    let mut setup_s = Vec::new();
    let mut replays: Vec<Vec<f64>> = Vec::new();
    let mut dep = None;
    let mut trace = args.trace.then(Trace::default);
    let mut m = Measured::default();
    for k in 0..SETUPS {
        drop(dep.take());
        let t = std::time::Instant::now();
        let d = deploy(&spec, args.seed, open_ms);
        setup_s.push(t.elapsed().as_secs_f64());
        m = Measured::default();
        let last = k + 1 == SETUPS;
        let mut untraced = None;
        replay(
            &d,
            &spec,
            if last { &mut trace } else { &mut untraced },
            &mut m,
        );
        replays.push(std::mem::take(&mut m.replay_steps));
        dep = Some(d);
    }
    let dep = dep.expect("SETUPS >= 1");
    let cfg = dep.engine.config();
    rep.notes.push(format!(
        "config: nodes={} worker_threads={} incremental={} adaptive={} trace={} ingest_budget={:?} exec_mode={:?} \
         stored_triples={} standing={} oneshots={}",
        cfg.nodes,
        cfg.worker_threads,
        cfg.incremental,
        cfg.adaptive,
        cfg.trace,
        cfg.ingest_budget,
        cfg.exec_mode,
        dep.inputs.stored.len(),
        dep.inputs.standing.len(),
        dep.inputs.oneshots.len(),
    ));

    let mid = layers::Counters::take(&dep);
    open_loop(&dep, &spec, open_ms, None, &mut trace, &mut m);
    let after = layers::Counters::take(&dep);
    // Read before the oracle runs: its tables and joins are the
    // benchmark's memory, not the program's.
    let peak_mb = peak_rss_mb()?;

    let verdict = oracle::check(&dep.inputs, &m.firings, &m.answers, args.seed);
    rep.attempted = verdict.attempted;
    rep.failed = verdict.failed;
    rep.correct = verdict.failed == 0 && verdict.attempted > 0;
    let busy = m.busy_ns as f64 / m.open_ns.max(1) as f64;
    rep.notes.push(format!(
        "check: attempted={} failed={} error_rate={:.6} errors={} marked={} oracle_checked={} mismatches={} digest={:016x}",
        verdict.attempted,
        verdict.failed,
        verdict.failed as f64 / verdict.attempted.max(1) as f64,
        verdict.errors,
        verdict.marked,
        verdict.checked,
        verdict.mismatches,
        verdict.digest,
    ));
    rep.notes.push(format!(
        "load: replay_tuples={} replay_s={:.3} open_busy={:.3} fire_calls={} oneshots={} lag_events={}",
        m.replay_tuples,
        m.replay_s,
        busy,
        m.fire_ms.len(),
        m.oneshot_ms.len(),
        m.lag_ms.len(),
    ));

    let medians = modeled_medians(&dep, &m);
    rep.notes.push(format!("modeled medians (ms): {medians:?}"));

    match trace {
        None => {
            let p = |xs: &[f64], pct: f64, what: &str| {
                percentile(xs, pct).map_err(|e| format!("{what}: {e}"))
            };
            rep.put("setup_s", median(&setup_s).expect("SETUPS >= 1"), "s")?;
            rep.put("fire_p50_ms", p(&m.fire_ms, 50.0, "fire_p50_ms")?, "ms")?;
            rep.put(
                "oneshot_p50_ms",
                p(&m.oneshot_ms, 50.0, "oneshot_p50_ms")?,
                "ms",
            )?;
            let gm = geomean(&medians.values().copied().collect::<Vec<_>>())
                .ok_or("no query class produced a latency")?;
            rep.put("modeled_geomean_ms", gm, "ms")?;
            rep.put("peak_rss_mb", peak_mb, "MB")?;
            // Printed but left out of the result line: on a shared 2-core
            // host a few minutes of host contention move the tails, and the
            // replay rate of `joins`, by more than any bound a regression
            // gate can use. So a figure that cannot be computed is noted
            // and the run goes on.
            let steps = replays.concat();
            rep.notes.push(match median(&steps) {
                Some(tps) => format!(
                    "ungated replay_tps = {tps} tuples/s ({} steps)",
                    steps.len()
                ),
                None => "ungated replay_tps refused: no replay steps".into(),
            });
            for (name, xs) in [
                ("fire_p95_ms", &m.fire_ms),
                ("oneshot_p95_ms", &m.oneshot_ms),
                ("gen_lag_p95_ms", &m.lag_ms),
            ] {
                let n = xs.len();
                rep.notes.push(match percentile(xs, 95.0) {
                    Ok(v) => format!("ungated {name} = {v} ms ({n} samples)"),
                    Err(e) => format!("ungated {name} refused: {e}"),
                });
            }
        }
        Some(mut t) => {
            let l = layers::Layers {
                dep: &dep,
                spec: &spec,
                seed: args.seed,
                mid,
                after,
            };
            let traced = median(&replays[SETUPS - 1]).ok_or("no replay steps")?;
            let untraced = median(&replays[SETUPS - 2]).ok_or("no replay steps")?;
            l.report(&mut t, &mut rep, traced, untraced)?;
            let path = layers::write_spans(&t, args)?;
            rep.notes.push(format!("spans: {path}"));
        }
    }
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::Report;

    #[test]
    fn a_metric_that_is_not_a_number_fails_the_run() {
        let mut rep = Report::default();
        assert!(rep.put("fire_p50_ms", f64::NAN, "ms").is_err());
        assert!(rep.put("peak_rss_mb", f64::INFINITY, "MB").is_err());
        assert!(rep.metrics.is_empty());
        rep.put("setup_s", 2.5, "s").unwrap();
        assert!(rep
            .json()
            .contains("\"setup_s\": {\"value\": 2.5, \"unit\": \"s\"}"));
    }
}
