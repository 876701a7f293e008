//! `perfbench` — the Pollux reproduction's end-to-end and per-layer
//! benchmark.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-pollux --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics (the untraced repetitions run first, then one traced run).
//! The last line of stdout is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. The exit code is 0 only when
//! every correctness check passed. See `perfbench/README.md`.

mod live;
mod probe;
mod report;
mod sim;
mod spans;
mod stats;

use report::{Report, END_TO_END, PER_LAYER};

const WORKLOADS: &[&str] = &["paper-pollux", "dc-tiresias", "live-service"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .unwrap_or_else(|| usage("bad --seconds")),
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                })
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("missing --workload"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload}"));
    }
    Args {
        workload,
        seed: seed.unwrap_or_else(|| usage("missing --seed")),
        seconds: seconds.unwrap_or_else(|| usage("missing --seconds")),
        trace: trace.unwrap_or_else(|| usage("missing --trace")),
    }
}

fn main() {
    let args = parse_args();
    let mut report = Report::default();
    match args.workload.as_str() {
        "paper-pollux" => sim::run(
            &sim::PAPER_POLLUX,
            args.seed,
            args.seconds,
            args.trace,
            &mut report,
        ),
        "dc-tiresias" => sim::run(
            &sim::DC_TIRESIAS,
            args.seed,
            args.seconds,
            args.trace,
            &mut report,
        ),
        _ => live::run(args.seed, args.seconds, args.trace, &mut report),
    }
    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    let missing: Vec<&str> = defs
        .iter()
        .filter(|d| {
            !report
                .metrics
                .get(d.name)
                .is_some_and(|v| v.value.is_finite())
        })
        .map(|d| d.name)
        .collect();
    if !missing.is_empty() {
        report.fail(
            missing.len() as u64,
            format!("metrics not measured: {}", missing.join(", ")),
        );
    }
    let title = format!(
        "{} seed {} ({} metrics)",
        args.workload,
        args.seed,
        if args.trace {
            "per-layer"
        } else {
            "end-to-end"
        }
    );
    if !report.print(&title, defs) {
        std::process::exit(1);
    }
}
