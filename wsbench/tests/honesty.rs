//! Open-loop honesty: the benchmark times results from when they were
//! due, its inputs are a pure function of the seed, its tail percentiles
//! refuse thin samples, and it refuses to run under a stray `WUKONG_*`
//! export. Runs at the tiny scale.

use std::time::Duration;
use wsbench::driver::{deploy, open_loop, replay, Measured, Stall};
use wsbench::stats::{percentile, MIN_TAIL};
use wsbench::workload::{generate, Scale, Spec, Workload};
use wsbench::{run, Args};

const OPEN_MS: u64 = 2_000;

fn measure(stall: Option<Stall>) -> Measured {
    let spec = Spec::new(Workload::Joins, Scale::Tiny);
    let dep = deploy(&spec, 7, OPEN_MS);
    let mut m = Measured::default();
    replay(&dep, &spec, &mut None, &mut m);
    open_loop(&dep, &spec, OPEN_MS, stall, &mut None, &mut m);
    m
}

#[test]
fn driver_stall_inflates_later_latency_and_generator_lag() {
    let calm = measure(None);
    let stall = Stall {
        at_ms: 500,
        dur: Duration::from_millis(400),
    };
    let stalled = measure(Some(stall));
    let max = |xs: &[f64]| xs.iter().copied().fold(0.0, f64::max);
    // The boundary due just after the stall point is served at least
    // 400 ms late; timing from the due time shows all of it.
    assert!(max(&stalled.fire_ms) >= 350.0, "{:?}", stalled.fire_ms);
    assert!(max(&calm.fire_ms) < 350.0, "{:?}", calm.fire_ms);
    let lag = |m: &Measured| percentile(&m.lag_ms, 95.0).expect("thousands of events");
    assert!(
        lag(&stalled) > lag(&calm) + 50.0,
        "stalled p95 lag {} vs calm {}",
        lag(&stalled),
        lag(&calm)
    );
    // Every scheduled event still ran.
    assert_eq!(calm.lag_ms.len(), stalled.lag_ms.len());
    assert_eq!(calm.fire_ms.len(), stalled.fire_ms.len());
}

#[test]
fn same_seed_same_inputs_other_seed_other_inputs() {
    for w in Workload::ALL {
        let spec = Spec::new(w, Scale::Tiny);
        let a = generate(&spec, 11, OPEN_MS);
        let b = generate(&spec, 11, OPEN_MS);
        let c = generate(&spec, 12, OPEN_MS);
        assert_eq!(a.stored, b.stored, "{}", w.name());
        assert_eq!(a.timeline, b.timeline, "{}", w.name());
        assert_eq!(a.standing, b.standing, "{}", w.name());
        let shots = |i: &wsbench::workload::Inputs| -> Vec<(u64, String)> {
            i.oneshots
                .iter()
                .map(|o| (o.due_us, o.text.clone()))
                .collect()
        };
        assert_eq!(shots(&a), shots(&b), "{}", w.name());
        assert_ne!(a.timeline, c.timeline, "{}", w.name());
        assert_ne!(a.stored, c.stored, "{}", w.name());
        assert_ne!(shots(&a), shots(&c), "{}", w.name());
    }
}

#[test]
fn percentile_refuses_thin_tails_and_names_the_count() {
    let xs: Vec<f64> = (0..199).map(f64::from).collect();
    let err = percentile(&xs, 95.0).expect_err("199 samples leave 9 beyond p95");
    assert_eq!((err.samples, err.beyond), (199, MIN_TAIL - 1));
    assert!(err.to_string().contains("199 samples"), "{err}");
    assert!(percentile(&xs[..20], 50.0).is_ok());
    assert!(percentile(&[], 50.0).is_err());

    // A run too short for a p95 fails instead of printing a guess.
    let args = Args {
        workload: Workload::Joins,
        seed: 3,
        seconds: 1,
        trace: false,
    };
    let err = run(&args, Scale::Tiny).expect_err("10 firing calls cannot carry the percentiles");
    assert!(
        err.contains("fire_p") && err.contains("10 samples"),
        "{err}"
    );
}

#[test]
fn refuses_stray_wukong_variables_and_bad_arguments() {
    let bin = env!("CARGO_BIN_EXE_wsbench");
    let args = [
        "--workload",
        "joins",
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "0",
    ];
    let out = std::process::Command::new(bin)
        .args(args)
        .env("WUKONG_WORKERS", "4")
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("WUKONG_WORKERS"));
    assert!(out.stdout.is_empty());
    let out = std::process::Command::new(bin)
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2));
}
