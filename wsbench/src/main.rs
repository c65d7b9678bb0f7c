//! `wsbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints context lines, then one JSON result line. Exits 1 when any
//! result failed, 2 on a usage or environment error.

use wsbench::workload::Scale;
use wsbench::{parse_args, run, wukong_env};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wsbench: {e}");
            eprintln!("usage: wsbench --workload <firehose|joins|oneshot-mix> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let stray = wukong_env();
    if !stray.is_empty() {
        eprintln!(
            "wsbench: refusing to run with {} set: the engine presets read WUKONG_* variables",
            stray.join(", ")
        );
        std::process::exit(2);
    }
    match run(&args, Scale::Paper) {
        Ok(rep) => {
            for n in &rep.notes {
                println!("# {n}");
            }
            for m in &rep.metrics {
                println!("# {} = {} {}", m.name, m.value, m.unit);
            }
            println!("{}", rep.json());
            if !rep.correct {
                eprintln!(
                    "wsbench: {} of {} results failed",
                    rep.failed, rep.attempted
                );
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("wsbench: {e}");
            std::process::exit(1);
        }
    }
}
