//! Head-to-head comparison of the two simulation steppers on a
//! paper-scale trace (64 jobs on 16 nodes × 4 GPUs over a 7-day
//! horizon):
//!
//! 1. `reference` — the retained pre-refactor 1 s tick loop
//!    ([`Simulation::run_reference`]): every tick recomputes
//!    interference, per-job iteration times, and records one profiler
//!    sample through the `BTreeMap`;
//! 2. `macro_step` — the event-horizon engine ([`Simulation::run`]):
//!    per-job constants are hoisted once per macro-step and the
//!    intervening ticks run in a tight inner loop;
//! 3. `macro_step_telemetry` — the same engine with a live
//!    `MemorySink`-backed telemetry recorder attached, pricing the
//!    instrumentation overhead (budget: ≤ 5 % over the bare engine).
//!
//! The two arms must produce **byte-identical** serialized
//! `SimResult`s — the same contract the determinism suite pins — so
//! the speedup below is a pure performance delta, never a trajectory
//! change.
//!
//! A second, datacenter-scale scenario (256 nodes × 4 GPUs, 1 000
//! jobs, 24 h horizon; a miniature in quick mode) runs the engine
//! ([`Simulation::run`]) across an `engine_threads` sweep (1/2/4),
//! again requiring byte-identical results at every thread count, and
//! derives a per-phase wall-clock breakdown (chunk advance vs
//! report/refit vs scheduling) from the engine's telemetry spans.
//!
//! Not a criterion bench: a custom `main` so the measured numbers land
//! in machine-readable form at `BENCH_sim.json` in the repo root. Set
//! `BENCH_SIM_QUICK=1` (CI does) for a fast smoke run — a smaller
//! trace and fewer repetitions, same arms, same output file schema.

use pollux_cluster::{AllocationMatrix, ClusterSpec};
use pollux_simulator::{PolicyJobView, SchedulingPolicy, SimConfig, Simulation};
use pollux_telemetry::{MemorySink, Recorder};
use pollux_workload::{JobSpec, TraceConfig, TraceGenerator, UserConfig};
use rand::rngs::StdRng;
use std::sync::Arc;
use std::time::Instant;

/// FCFS packing at a fixed GPU ask: running jobs keep their placement,
/// pending jobs pack into free GPUs or wait. Deliberately cheap so the
/// measurement prices the engine, not the policy.
struct FcfsPacked {
    gpus: u32,
}

impl SchedulingPolicy for FcfsPacked {
    fn name(&self) -> &'static str {
        "fcfs-packed"
    }

    fn schedule(
        &mut self,
        _now: f64,
        jobs: &[PolicyJobView<'_>],
        spec: &ClusterSpec,
        _rng: &mut StdRng,
    ) -> AllocationMatrix {
        let mut free: Vec<u32> = spec.iter().map(|(_, s)| s.gpus).collect();
        let mut m = AllocationMatrix::zeros(jobs.len(), spec.num_nodes());
        for (j, view) in jobs.iter().enumerate() {
            if view.is_running() {
                for (n, &g) in view.current_placement.iter().enumerate() {
                    m.set(j, n, g);
                    free[n] = free[n].saturating_sub(g);
                }
                continue;
            }
            let mut need = self.gpus;
            for (n, f) in free.iter_mut().enumerate() {
                if need == 0 {
                    break;
                }
                let take = need.min(*f);
                if take > 0 {
                    m.set(j, n, take);
                    *f -= take;
                    need -= take;
                }
            }
            if need > 0 {
                for (n, f) in free.iter_mut().enumerate() {
                    *f += m.get(j, n);
                    m.set(j, n, 0);
                }
            }
        }
        m
    }
}

struct Scenario {
    num_jobs: usize,
    nodes: u32,
    gpus_per_node: u32,
    /// Submission window (hours); arrivals spread across it so the
    /// event-horizon arithmetic is exercised deep into the horizon.
    window_hours: f64,
    max_sim_time: f64,
}

fn workload(s: &Scenario) -> Vec<(JobSpec, UserConfig)> {
    TraceGenerator::new(TraceConfig {
        num_jobs: s.num_jobs,
        duration_hours: s.window_hours,
        max_gpus: s.gpus_per_node * 2,
        gpus_per_node: s.gpus_per_node,
        seed: 2024,
        ..Default::default()
    })
    .expect("static trace config is valid")
    .generate()
    .into_iter()
    .map(|spec| {
        let user = spec.tuned;
        (spec, user)
    })
    .collect()
}

fn sim_config(s: &Scenario) -> SimConfig {
    SimConfig {
        max_sim_time: s.max_sim_time,
        interference_slowdown: 0.1,
        seed: 7,
        ..Default::default()
    }
}

/// One construct + run of the chosen stepper over a pre-generated
/// workload; returns the serialized result (for the identity check)
/// and the wall time of the simulation itself (trace generation and
/// serialization stay outside the timed region).
fn run_arm(s: &Scenario, wl: &[(JobSpec, UserConfig)], arm: Arm) -> (String, u128) {
    let spec = ClusterSpec::homogeneous(s.nodes, s.gpus_per_node).unwrap();
    let wl = wl.to_vec();
    // Sink construction stays outside the timed region; draining events
    // during the run (ring-buffer pushes) is part of what we price.
    let recorder = match arm {
        Arm::MacroStepTelemetry => Some(Recorder::new(Arc::new(MemorySink::new(1 << 16)))),
        _ => None,
    };
    let start = Instant::now();
    let mut sim = Simulation::new(sim_config(s), spec, FcfsPacked { gpus: 2 }, wl)
        .expect("valid simulation inputs");
    if let Some(recorder) = recorder {
        sim = sim.with_recorder(recorder);
    }
    let result = if matches!(arm, Arm::Reference) {
        sim.run_reference()
    } else {
        sim.run()
    };
    let ns = start.elapsed().as_nanos();
    let json = serde_json::to_string(&result).expect("SimResult serializes");
    (json, ns)
}

#[derive(Clone, Copy)]
enum Arm {
    Reference,
    MacroStep,
    MacroStepTelemetry,
}

struct ArmResult {
    name: &'static str,
    json: String,
    best_ns: u128,
}

fn measure(
    name: &'static str,
    s: &Scenario,
    wl: &[(JobSpec, UserConfig)],
    arm: Arm,
    reps: usize,
) -> ArmResult {
    let (json, mut best_ns) = run_arm(s, wl, arm);
    for _ in 1..reps {
        let (again, ns) = run_arm(s, wl, arm);
        assert_eq!(again, json, "{name}: non-deterministic across repetitions");
        best_ns = best_ns.min(ns);
    }
    ArmResult {
        name,
        json,
        best_ns,
    }
}

/// One datacenter-arm run at the chosen `engine_threads` count,
/// optionally with a live recorder for the phase breakdown.
fn run_dc(
    s: &Scenario,
    wl: &[(JobSpec, UserConfig)],
    threads: usize,
    sink: Option<&Arc<MemorySink>>,
) -> (String, u128) {
    let spec = ClusterSpec::homogeneous(s.nodes, s.gpus_per_node).unwrap();
    let wl = wl.to_vec();
    let cfg = SimConfig {
        engine_threads: threads,
        ..sim_config(s)
    };
    let recorder = sink.map(|s| Recorder::new(s.clone() as Arc<dyn pollux_telemetry::Sink>));
    let start = Instant::now();
    let mut sim =
        Simulation::new(cfg, spec, FcfsPacked { gpus: 2 }, wl).expect("valid simulation inputs");
    if let Some(recorder) = recorder {
        sim = sim.with_recorder(recorder);
    }
    let result = sim.run();
    let ns = start.elapsed().as_nanos();
    let json = serde_json::to_string(&result).expect("SimResult serializes");
    (json, ns)
}

/// Sums the engine's round spans out of a drained event stream. The
/// chunk-advance phase carries no span of its own (it *is* the hot
/// loop); callers derive it as `total - report - sched`.
fn span_sums(events: &[pollux_telemetry::Event]) -> (u128, u128) {
    let (mut report_ns, mut sched_ns) = (0u128, 0u128);
    for e in events {
        if let pollux_telemetry::Event::Span {
            subsystem,
            name,
            dur_ns,
            ..
        } = e
        {
            if subsystem.as_ref() == "engine" {
                match name.as_ref() {
                    "report_round" => report_ns += *dur_ns as u128,
                    "reschedule" => sched_ns += *dur_ns as u128,
                    _ => {}
                }
            }
        }
    }
    (report_ns, sched_ns)
}

struct DcArm {
    threads: usize,
    best_ns: u128,
}

struct DcPhases {
    total_ns: u128,
    chunk_ns: u128,
    report_ns: u128,
    sched_ns: u128,
}

/// Measures one recorded single-threaded datacenter run and splits
/// its wall clock into chunk-advance / report-refit / scheduling
/// phases.
fn dc_phases(s: &Scenario, wl: &[(JobSpec, UserConfig)]) -> (DcPhases, String) {
    let sink = Arc::new(MemorySink::new(1 << 20));
    let (json, total_ns) = run_dc(s, wl, 1, Some(&sink));
    assert_eq!(sink.dropped(), 0, "phase sink overflowed");
    let (report_ns, sched_ns) = span_sums(&sink.drain());
    let chunk_ns = total_ns.saturating_sub(report_ns + sched_ns);
    (
        DcPhases {
            total_ns,
            chunk_ns,
            report_ns,
            sched_ns,
        },
        json,
    )
}

fn main() {
    let quick = std::env::var("BENCH_SIM_QUICK").is_ok_and(|v| v != "0");
    let (scenario, reps) = if quick {
        (
            Scenario {
                num_jobs: 12,
                nodes: 4,
                gpus_per_node: 4,
                window_hours: 4.0,
                max_sim_time: 12.0 * 3600.0,
            },
            1,
        )
    } else {
        (
            Scenario {
                num_jobs: 64,
                nodes: 16,
                gpus_per_node: 4,
                window_hours: 48.0,
                max_sim_time: 7.0 * 24.0 * 3600.0,
            },
            3,
        )
    };

    let wl = workload(&scenario);
    let reference = measure("reference", &scenario, &wl, Arm::Reference, reps);
    // The telemetry overhead is a small delta (low single-digit
    // percent) that per-run scheduling jitter (±20 % on a shared
    // machine) easily swamps. Sample both macro arms from one
    // interleaved loop — same count, same time window, alternating
    // order within each pair — and compare minima: each arm's minimum
    // converges to its noise-floor runtime, and the symmetric schedule
    // keeps slow machine phases from biasing either arm.
    let pairs = if quick { reps.max(2) } else { 12 };
    let mut macro_step = ArmResult {
        name: "macro_step",
        json: String::new(),
        best_ns: u128::MAX,
    };
    let mut telemetry = ArmResult {
        name: "macro_step_telemetry",
        json: String::new(),
        best_ns: u128::MAX,
    };
    for i in 0..pairs {
        let order = if i % 2 == 0 {
            [Arm::MacroStep, Arm::MacroStepTelemetry]
        } else {
            [Arm::MacroStepTelemetry, Arm::MacroStep]
        };
        for arm in order {
            let slot = match arm {
                Arm::MacroStep => &mut macro_step,
                _ => &mut telemetry,
            };
            let (json, ns) = run_arm(&scenario, &wl, arm);
            if slot.json.is_empty() {
                slot.json = json;
            } else {
                assert_eq!(json, slot.json, "{}: non-deterministic", slot.name);
            }
            slot.best_ns = slot.best_ns.min(ns);
        }
    }
    let overhead_pct = (telemetry.best_ns as f64 / macro_step.best_ns as f64 - 1.0) * 100.0;

    // The hard contract first: all three arms walked the same
    // trajectory, bit for bit — telemetry included.
    for arm in [&macro_step, &telemetry] {
        if reference.json != arm.json {
            let at = reference
                .json
                .bytes()
                .zip(arm.json.bytes())
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| reference.json.len().min(arm.json.len()));
            panic!(
                "{} diverged from reference at byte {at}; run the determinism suite",
                arm.name
            );
        }
    }

    // ---- Datacenter-scale arm: an engine_threads sweep and a
    // per-phase breakdown.
    let dc_scenario = if quick {
        Scenario {
            num_jobs: 100,
            nodes: 32,
            gpus_per_node: 4,
            window_hours: 2.0,
            max_sim_time: 6.0 * 3600.0,
        }
    } else {
        Scenario {
            num_jobs: 1000,
            nodes: 256,
            gpus_per_node: 4,
            window_hours: 12.0,
            max_sim_time: 24.0 * 3600.0,
        }
    };
    let dc_reps = if quick { 1 } else { 2 };
    let dc_wl = workload(&dc_scenario);
    let mut dc_arms: Vec<DcArm> = Vec::new();
    let mut dc_json: Option<String> = None;
    let check = |json: String, threads: usize, baseline: &mut Option<String>| match baseline {
        None => *baseline = Some(json),
        Some(base) => {
            if *base != json {
                let at = base
                    .bytes()
                    .zip(json.bytes())
                    .position(|(a, b)| a != b)
                    .unwrap_or_else(|| base.len().min(json.len()));
                panic!(
                    "datacenter arm (threads={threads}) diverged from the \
                         first arm at byte {at}; run the determinism suite"
                );
            }
        }
    };
    for threads in [1usize, 2, 4] {
        let mut best_ns = u128::MAX;
        for _ in 0..dc_reps {
            let (json, ns) = run_dc(&dc_scenario, &dc_wl, threads, None);
            check(json, threads, &mut dc_json);
            best_ns = best_ns.min(ns);
        }
        dc_arms.push(DcArm { threads, best_ns });
    }
    // Phase breakdown: the fastest of several recorded single-threaded
    // runs (span creation is priced inside the report/sched phases it
    // labels; the chunk phase carries none).
    let mut job_phases: Option<DcPhases> = None;
    for _ in 0..dc_reps.max(2) {
        let (p, json) = dc_phases(&dc_scenario, &dc_wl);
        check(json, 1, &mut dc_json);
        if job_phases
            .as_ref()
            .is_none_or(|prev| p.total_ns < prev.total_ns)
        {
            job_phases = Some(p);
        }
    }
    let job_phases = job_phases.expect("at least one recorded run");

    let speedup = reference.best_ns as f64 / macro_step.best_ns as f64;
    let arms = [&reference, &macro_step, &telemetry];
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"bench\": \"bench_sim\",\n  \"quick\": {quick},\n  \"num_jobs\": {},\n  \"num_nodes\": {},\n  \"gpus_per_node\": {},\n  \"window_hours\": {:.1},\n  \"max_sim_days\": {:.2},\n  \"reps\": {reps},\n  \"results_identical\": true,\n  \"arms\": [\n",
        scenario.num_jobs,
        scenario.nodes,
        scenario.gpus_per_node,
        scenario.window_hours,
        scenario.max_sim_time / 86_400.0,
    ));
    for (i, arm) in arms.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"name\": \"{}\", \"best_total_ns\": {}, \"ms\": {:.1} }}{}\n",
            arm.name,
            arm.best_ns,
            arm.best_ns as f64 / 1.0e6,
            if i + 1 < arms.len() { "," } else { "" }
        ));
    }
    out.push_str(&format!(
        "  ],\n  \"speedup_macro_vs_reference\": {speedup:.2},\n  \"telemetry_enabled\": {},\n  \"telemetry_overhead_pct\": {overhead_pct:.2},\n",
        cfg!(feature = "telemetry"),
    ));
    out.push_str(&format!(
        "  \"datacenter\": {{\n    \"num_jobs\": {},\n    \"num_nodes\": {},\n    \"gpus_per_node\": {},\n    \"max_sim_days\": {:.2},\n    \"reps\": {dc_reps},\n    \"results_identical\": true,\n    \"arms\": [\n",
        dc_scenario.num_jobs,
        dc_scenario.nodes,
        dc_scenario.gpus_per_node,
        dc_scenario.max_sim_time / 86_400.0,
    ));
    for (i, arm) in dc_arms.iter().enumerate() {
        out.push_str(&format!(
            "      {{ \"name\": \"job_major\", \"engine_threads\": {}, \"best_total_ns\": {}, \"ms\": {:.1} }}{}\n",
            arm.threads,
            arm.best_ns,
            arm.best_ns as f64 / 1.0e6,
            if i + 1 < dc_arms.len() { "," } else { "" }
        ));
    }
    out.push_str("    ],\n    \"phases\": [\n");
    let p = &job_phases;
    out.push_str(&format!(
        "      {{ \"arm\": \"job_major\", \"total_ms\": {:.1}, \"chunk_advance_ms\": {:.1}, \"report_refit_ms\": {:.1}, \"sched_ms\": {:.1} }}\n",
        p.total_ns as f64 / 1.0e6,
        p.chunk_ns as f64 / 1.0e6,
        p.report_ns as f64 / 1.0e6,
        p.sched_ns as f64 / 1.0e6,
    ));
    out.push_str("    ]\n  }\n}\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim.json");
    std::fs::write(path, &out).expect("write BENCH_sim.json");
    print!("{out}");

    if quick {
        assert!(
            speedup > 1.0,
            "macro-stepped engine must beat the reference tick loop (got {speedup:.2}x)"
        );
    } else {
        assert!(
            speedup >= 5.0,
            "macro-stepped engine must be at least 5x the reference tick loop \
             on the paper-scale trace (got {speedup:.2}x)"
        );
        // Quick runs are too noisy (1 rep, tiny trace) for a tight
        // overhead bound; the full run enforces the ≤ 5 % budget.
        assert!(
            overhead_pct <= 5.0,
            "telemetry recorder overhead exceeded the 5% budget (got {overhead_pct:.2}%)"
        );
    }
}
