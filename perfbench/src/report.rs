//! The metric registry and the benchmark's output.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One registered metric.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics, printed by every untraced run (`--trace 0`).
pub const END_TO_END: &[MetricDef] = &[
    def("wall_s", "s", Lower),
    def("setup_s", "s", Lower),
    def("peak_rss_mb", "MiB", Lower),
    def("avg_jct_h", "h", Lower),
    def("stat_eff", "ratio", Higher),
    def("round_p50_ms", "ms", Lower),
    def("round_p99_ms", "ms", Lower),
];

/// Per-layer metrics, printed by every traced run (`--trace 1`).
pub const PER_LAYER: &[MetricDef] = &[
    def("workload.generate_ms", "ms", Lower),
    def("simulator.build_ms", "ms", Lower),
    def("simulator.self_s", "s", Lower),
    def("simulator.report_round_s", "s", Lower),
    def("simulator.chunk_advance_s", "s", Lower),
    def("simulator.chunks", "count", Lower),
    def("simulator.ticks", "count", Lower),
    def("simulator.mid_chunk_abort_ratio", "ratio", Lower),
    def("control.policy_s", "s", Lower),
    def("control.self_s", "s", Lower),
    def("control.policy_calls", "count", Lower),
    def("control.sparse_ratio", "ratio", Higher),
    def("sched.generations", "count", Lower),
    def("sched.fitness_evals", "count", Lower),
    def("sched.incremental_ratio", "ratio", Higher),
    def("sched.table_solves", "count", Lower),
    def("sched.table_hit_ratio", "ratio", Higher),
    def("sched.ga_evolve_s", "s", Lower),
    def("sched.table_build_s", "s", Lower),
    def("agent.refit_calls", "count", Lower),
    def("agent.refit_busy_s", "s", Lower),
    def("agent.refit_p50_ms", "ms", Lower),
    def("agent.refit_p99_ms", "ms", Lower),
    def("agent.refit_s", "s", Lower),
    def("agent.refits", "count", Lower),
    def("agent.warm_accept_ratio", "ratio", Higher),
    def("service.start_ms", "ms", Lower),
    def("service.self_s", "s", Lower),
    def("service.record_iteration_p99_us", "us", Lower),
    def("service.placement_p99_us", "us", Lower),
    def("service.submit_p99_us", "us", Lower),
    def("telemetry.overhead_frac", "ratio", Lower),
    def("trace.residual_frac", "ratio", Lower),
];

/// A measured value with the number of samples it summarizes.
#[derive(Debug, Clone, Copy)]
pub struct Value {
    pub value: f64,
    pub samples: usize,
    /// For a tail latency: the percentile actually reported.
    pub percentile: Option<f64>,
}

/// Collected metrics plus the correctness tally of one run.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: BTreeMap<&'static str, Value>,
    /// Operations attempted (simulated jobs, or service calls and rounds).
    pub attempted: u64,
    /// Operations that failed a correctness check.
    pub failed: u64,
    /// One line per failure class, for the human-readable output.
    pub failures: Vec<String>,
    /// Lines printed before the metric table (e.g. the self-time table).
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.metrics.insert(
            name,
            Value {
                value,
                samples,
                percentile: None,
            },
        );
    }

    pub fn set_tail(&mut self, name: &'static str, value: f64, samples: usize, percentile: f64) {
        self.metrics.insert(
            name,
            Value {
                value,
                samples,
                percentile: Some(percentile),
            },
        );
    }

    pub fn fail(&mut self, count: u64, why: String) {
        self.failed += count;
        self.failures.push(why);
    }

    /// Appends the traced run's self-time table to the notes and sets
    /// `trace.residual_frac` and `telemetry.overhead_frac` from it.
    pub fn self_time_table(
        &mut self,
        workload: &str,
        traced_wall: f64,
        untraced_wall: f64,
        rows: &[(&str, f64)],
    ) {
        let summed: f64 = rows.iter().map(|r| r.1).sum();
        let residual = (traced_wall - summed) / traced_wall;
        let overhead = (traced_wall - untraced_wall) / untraced_wall;
        self.set("trace.residual_frac", residual, 1);
        self.set("telemetry.overhead_frac", overhead, 1);
        self.notes.push(format!(
            "-- self time by layer, traced run of {workload} \
             ({traced_wall:.3} s traced, {untraced_wall:.3} s untraced median)"
        ));
        for (name, s) in rows {
            self.notes.push(format!(
                "   {name:<44} {s:>10.4} s {:>6.1}%",
                100.0 * s / traced_wall
            ));
        }
        self.notes.push(format!(
            "   {:<44} {summed:>10.4} s  residual {:+.4}% (bound ±1%)",
            "sum of self times",
            100.0 * residual
        ));
        self.notes.push(format!(
            "   telemetry overhead {:+.2}% of untraced wall_s",
            100.0 * overhead
        ));
    }

    /// Prints the human-readable table for `defs`, then the one-line
    /// JSON result as the last line of stdout. Returns whether every
    /// check passed.
    pub fn print(&self, title: &str, defs: &[MetricDef]) -> bool {
        let correct = self.failed == 0 && self.attempted > 0;
        let mut out = String::new();
        let _ = writeln!(out, "== {title}");
        for line in &self.notes {
            let _ = writeln!(out, "{line}");
        }
        let _ = writeln!(
            out,
            "{:<34} {:>16}  {:<6} {:<7} {:>8}",
            "metric", "value", "unit", "better", "samples"
        );
        let mut json = String::new();
        for d in defs {
            let v = self.metrics.get(d.name).copied().unwrap_or(Value {
                value: f64::NAN,
                samples: 0,
                percentile: None,
            });
            let better = match d.better {
                Lower => "lower",
                Higher => "higher",
            };
            let pct = v
                .percentile
                .map(|p| format!("  (p{p:.1})"))
                .unwrap_or_default();
            let _ = writeln!(
                out,
                "{:<34} {:>16.6}  {:<6} {:<7} {:>8}{pct}",
                d.name, v.value, d.unit, better, v.samples
            );
            let value = if v.value.is_finite() { v.value } else { 0.0 };
            if !json.is_empty() {
                json.push_str(", ");
            }
            let _ = write!(
                json,
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                d.name, d.unit
            );
        }
        let failed_frac = if self.attempted > 0 {
            self.failed as f64 / self.attempted as f64
        } else {
            1.0
        };
        let _ = writeln!(
            out,
            "correct {correct}  attempted {}  failed {}  failed_frac {failed_frac}",
            self.attempted, self.failed
        );
        for f in &self.failures {
            let _ = writeln!(out, "FAILED: {f}");
        }
        print!("{out}");
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.attempted, self.failed
        );
        correct
    }
}

/// Peak resident set size of this process (VmHWM) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// One timed set-up: the probe clock when it began (s) and the host
/// time of its two parts (ms), raw.
pub type SetupTime = (f64, f64, f64);

/// Whether enough set-ups were timed for a steady `setup_s` median: at
/// least 15, and at least 0.5 s of set-up in total (at most 500).
pub fn enough_setups(setups: &[SetupTime]) -> bool {
    let total_ms: f64 = setups.iter().map(|s| s.1 + s.2).sum();
    setups.len() >= 500 || (setups.len() >= 15 && total_ms >= 500.0)
}
