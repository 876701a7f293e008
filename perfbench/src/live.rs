//! The `live-service` workload: a closed loop driving `ClusterService`.
//!
//! One client thread runs a fixed number of rounds against a service
//! running Pollux on 16×4 GPUs with 64 jobs. Each round it triggers a
//! scheduling round, reports one iteration per placed job at the
//! ground-truth iteration time (every 8th iteration also refits,
//! records gradient statistics, and reads the tuned batch size), spins
//! until the round is applied, and reads every placement back.
//!
//! A round also stands for one 60 s scheduling interval of simulated
//! training: each placed job advances by its ground-truth goodput at
//! the placement and batch size the service chose, a moved job loses
//! the 30 s checkpoint-restart delay, and a job that reaches its work
//! completes and is replaced by a fresh submission. That gives the
//! service the same simulated-time metrics as the simulator workloads.

use crate::probe::HostProbe;
use crate::report::{enough_setups, peak_rss_mb, Report, SetupTime};
use crate::spans::{Label, Op, SpanStore};
use crate::stats::{median, percentile, ratio, tail_percentile};
use pollux_cluster::{ClusterSpec, JobId};
use pollux_core::{ClusterService, JobHandle, PolluxConfig, ServiceConfig};
use pollux_models::GradientStats;
use pollux_sched::GaConfig;
use pollux_simulator::SimJob;
use pollux_telemetry::Recorder;
use pollux_workload::{JobSpec, ModelKind, UserConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

const NODES: u32 = 16;
const GPUS_PER_NODE: u32 = 4;
const JOBS: usize = 64;
const ROUNDS: usize = 1000;
const REFIT_EVERY: u64 = 8;
const ROUND_SIM_S: f64 = 60.0;
const RESTART_SIM_S: f64 = 30.0;
/// Range of a job's nominal size (single-GPU hours at m0).
const WORK_GPU_H: (f64, f64) = (2.0, 16.0);
const WAIT_TIMEOUT: Duration = Duration::from_secs(10);

/// Deterministic job stream: models cycle through Table 1, sizes are
/// log-uniform in [`WORK_GPU_H`], both drawn from the seed.
struct JobStream {
    rng: StdRng,
    next: u32,
    offset: usize,
}

impl JobStream {
    fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x11fe_5e41_1ce0);
        let offset = rng.gen_range(0..ModelKind::ALL.len());
        Self {
            rng,
            next: 0,
            offset,
        }
    }

    fn next_job(&mut self) -> SimJob {
        let id = self.next;
        self.next += 1;
        let kind = ModelKind::ALL[(id as usize + self.offset) % ModelKind::ALL.len()];
        let profile = kind.profile();
        let (lo, hi) = WORK_GPU_H;
        let gpu_h = self.rng.gen_range(lo.ln()..hi.ln()).exp();
        let work = profile.total_work * gpu_h * 3600.0 / profile.nominal_gpu_seconds();
        let user = UserConfig {
            gpus: 1,
            batch_size: profile.m0,
        };
        let spec = JobSpec {
            id: JobId(id),
            kind,
            submit_time: 0.0,
            work,
            tuned: user,
            realistic: user,
        };
        SimJob::new(spec, user, NODES as usize)
    }
}

/// One job as the client tracks it: the service handle plus the
/// ground truth the client uses to generate measurements and progress.
struct LiveJob {
    handle: JobHandle,
    truth: SimJob,
    iterations: u64,
    submit_sim: f64,
    restart_left: f64,
}

/// Client-side timings and counts of one repetition.
#[derive(Default)]
struct Calls {
    /// Latency of each call, per operation (µs).
    lat: BTreeMap<Op, Vec<f64>>,
    errors: u64,
    spans: Option<Arc<SpanStore>>,
}

impl Calls {
    fn call<T>(&mut self, op: Op, f: impl FnOnce() -> T) -> T {
        let span_start = self.spans.as_ref().map(|s| s.now());
        let t = Instant::now();
        let out = f();
        let us = t.elapsed().as_nanos() as f64 / 1e3;
        if let (Some(store), Some(s)) = (&self.spans, span_start) {
            store.push(Label::Call(op), s, store.now());
        }
        self.lat.entry(op).or_default().push(us);
        out
    }

    fn count(&self) -> u64 {
        self.lat.values().map(|v| v.len() as u64).sum()
    }

    fn of(&self, op: Op) -> &[f64] {
        self.lat.get(&op).map(Vec::as_slice).unwrap_or(&[])
    }
}

struct Setup {
    service: ClusterService,
    stream: JobStream,
    jobs: Vec<LiveJob>,
    generate_ms: f64,
    start_ms: f64,
}

fn service_config(seed: u64, telemetry: Recorder) -> ServiceConfig {
    let mut pollux = PolluxConfig::default();
    pollux.sched.ga = GaConfig {
        population: 40,
        generations: 20,
        ..Default::default()
    };
    ServiceConfig {
        pollux,
        // Rounds run only when the client triggers them.
        interval: Duration::from_secs(3600),
        // Restarts are charged in simulated time by the client.
        restart_delay: Duration::ZERO,
        seed,
        telemetry,
    }
}

fn setup(seed: u64, telemetry: Recorder, calls: &mut Calls) -> Result<Setup, String> {
    let t0 = Instant::now();
    let mut stream = JobStream::new(seed);
    let truths: Vec<SimJob> = (0..JOBS).map(|_| stream.next_job()).collect();
    let generate_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t1 = Instant::now();
    let spec = ClusterSpec::homogeneous(NODES, GPUS_PER_NODE).expect("valid cluster");
    let service = ClusterService::start(service_config(seed, telemetry), spec)
        .map_err(|e| format!("ClusterService::start: {e}"))?;
    let mut jobs = Vec::with_capacity(JOBS);
    for truth in truths {
        jobs.push(submit(&service, truth, 0.0, calls)?);
    }
    let start_ms = t1.elapsed().as_secs_f64() * 1e3;
    Ok(Setup {
        service,
        stream,
        jobs,
        generate_ms,
        start_ms,
    })
}

fn submit(
    service: &ClusterService,
    truth: SimJob,
    now: f64,
    calls: &mut Calls,
) -> Result<LiveJob, String> {
    let p = &truth.profile;
    let handle = calls
        .call(Op::Submit, || service.submit(p.m0, p.eta0, p.limits))
        .map_err(|e| format!("submit: {e}"))?;
    Ok(LiveJob {
        handle,
        truth,
        iterations: 0,
        submit_sim: now,
        restart_left: 0.0,
    })
}

/// What one repetition measured.
#[derive(Default)]
struct Rep {
    /// Probe clock at the start and end of the rounds (s).
    span: (f64, f64),
    /// Host time of the rounds, raw and at reference speed.
    wall_raw_s: f64,
    wall_s: f64,
    /// Each round's latency (ms) and the probe clock when it began.
    round_ms: Vec<f64>,
    round_at: Vec<f64>,
    jcts_h: Vec<f64>,
    makespan_h: f64,
    stat_eff: f64,
    rounds: u64,
    capacity_violations: u64,
    timeouts: u64,
}

/// Runs the fixed rounds on a set-up service. `failure` collects the
/// first error that stopped the loop early. With a probe, the host is
/// probed before each round, outside its latency.
fn rounds(
    s: &mut Setup,
    calls: &mut Calls,
    failure: &mut Option<String>,
    mut probe: Option<&mut HostProbe>,
) -> Rep {
    let mut rep = Rep::default();
    let mut sim_now = 0.0;
    let mut eff_sum = 0.0;
    let mut eff_n = 0u64;
    let mut completions = 0usize;
    let clock = |p: &Option<&mut HostProbe>| p.as_deref().map_or(0.0, HostProbe::now);
    if let Some(p) = probe.as_deref_mut() {
        p.sample();
    }
    rep.span.0 = clock(&probe);
    let started = Instant::now();
    for _ in 0..ROUNDS {
        if let Some(p) = probe.as_deref_mut() {
            p.tick();
        }
        rep.round_at.push(clock(&probe));
        let before = s.service.rounds();
        let t0 = Instant::now();
        if let Err(e) = calls.call(Op::Trigger, || s.service.trigger_schedule()) {
            calls.errors += 1;
            *failure = Some(format!("trigger_schedule: {e}"));
            break;
        }
        for job in &mut s.jobs {
            let Some(shape) = job.truth.shape() else {
                continue;
            };
            let m = job.truth.batch_size;
            let t_iter = job.truth.true_t_iter(shape, m);
            calls.call(Op::RecordIteration, || {
                job.handle.record_iteration(shape, m, t_iter)
            });
            job.iterations += 1;
            if job.iterations % REFIT_EVERY == 0 {
                calls.call(Op::Refit, || job.handle.refit());
                let stats =
                    GradientStats::new(job.truth.true_phi() / job.truth.profile.m0 as f64, 1.0)
                        .expect("positive noise scale");
                calls.call(Op::GradientStats, || {
                    job.handle.record_gradient_stats(stats)
                });
                if let Some(t) = calls.call(Op::Tuning, || job.handle.tuning()) {
                    job.truth.batch_size = t.batch_size;
                }
            }
        }
        let wait_start = calls.spans.as_ref().map(|st| st.now());
        let deadline = Instant::now() + WAIT_TIMEOUT;
        let mut applied = true;
        while s.service.rounds() <= before {
            if Instant::now() > deadline {
                applied = false;
                break;
            }
            std::thread::yield_now();
        }
        if let (Some(store), Some(w)) = (&calls.spans, wait_start) {
            store.push(Label::Wait, w, store.now());
        }
        if !applied {
            rep.timeouts += 1;
            *failure = Some(format!("round not applied within {WAIT_TIMEOUT:?}"));
            break;
        }
        rep.round_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        rep.rounds += 1;

        // Read the applied placements back and check node capacity.
        let mut used = [0u32; NODES as usize];
        for job in &mut s.jobs {
            let mut placement = calls.call(Op::Placement, || job.handle.placement());
            placement.resize(NODES as usize, 0);
            for (u, g) in used.iter_mut().zip(&placement) {
                *u += g;
            }
            if placement != job.truth.placement {
                // A job that has trained pays the restart delay on every
                // new placement, including a resume after preemption.
                if job.iterations > 0 && placement.iter().any(|&g| g > 0) {
                    job.restart_left = RESTART_SIM_S;
                }
                job.truth.placement = placement;
            }
        }
        if used.iter().any(|&u| u > GPUS_PER_NODE) {
            rep.capacity_violations += 1;
        }

        // Advance one interval of simulated training.
        sim_now += ROUND_SIM_S;
        let mut i = 0;
        while i < s.jobs.len() {
            let job = &mut s.jobs[i];
            if let Some(shape) = job.truth.shape() {
                let (lo, hi) = job
                    .truth
                    .profile
                    .limits
                    .range(shape)
                    .unwrap_or((job.truth.profile.m0, job.truth.profile.m0));
                let m = job.truth.batch_size.clamp(lo, hi);
                job.truth.batch_size = m;
                let lost = job.restart_left.min(ROUND_SIM_S);
                job.restart_left -= lost;
                let eff = job.truth.true_efficiency(m);
                job.truth.progress +=
                    job.truth.true_throughput(shape, m) * eff * (ROUND_SIM_S - lost);
                eff_sum += eff;
                eff_n += 1;
            }
            if job.truth.progress >= job.truth.spec.work {
                let done = s.jobs.swap_remove(i);
                calls.call(Op::Complete, || s.service.complete(done.handle.id()));
                rep.jcts_h.push((sim_now - done.submit_sim) / 3600.0);
                completions += 1;
                if completions == JOBS {
                    rep.makespan_h = sim_now / 3600.0;
                }
                let truth = s.stream.next_job();
                match submit(&s.service, truth, sim_now, calls) {
                    Ok(j) => s.jobs.push(j),
                    Err(e) => {
                        calls.errors += 1;
                        *failure = Some(e);
                    }
                }
                // Slot `i` now holds the job moved from the end, which
                // is examined next; replacements hold no GPUs yet.
                continue;
            }
            i += 1;
        }
        s.jobs.sort_by_key(|j| j.handle.id());
    }
    rep.wall_raw_s = started.elapsed().as_secs_f64();
    if let Some(p) = probe.as_deref_mut() {
        p.sample();
    }
    rep.span.1 = clock(&probe);
    if completions < JOBS {
        // Fewer than 64 completions: censored at the end of the run.
        rep.makespan_h = sim_now / 3600.0;
    }
    rep.stat_eff = ratio(eff_sum, eff_n as f64);
    rep
}

fn tally(report: &mut Report, what: &str, rep: &Rep, calls: &Calls, failure: Option<String>) {
    report.attempted += calls.count() + ROUNDS as u64;
    if calls.errors > 0 {
        report.fail(
            calls.errors,
            format!("{what}: {} service calls failed", calls.errors),
        );
    }
    if rep.capacity_violations > 0 {
        report.fail(
            rep.capacity_violations,
            format!(
                "{what}: {} rounds placed more GPUs on a node than it has",
                rep.capacity_violations
            ),
        );
    }
    if rep.timeouts > 0 || rep.rounds < ROUNDS as u64 {
        report.fail(
            ROUNDS as u64 - rep.rounds,
            format!(
                "{what}: {} of {ROUNDS} rounds did not complete ({})",
                ROUNDS as u64 - rep.rounds,
                failure.unwrap_or_default()
            ),
        );
    }
}

/// Runs the workload for `seconds` and fills `report`.
pub fn run(seed: u64, seconds: f64, traced: bool, report: &mut Report) {
    let started = Instant::now();
    let mut probe = HostProbe::new();
    let mut setups: Vec<SetupTime> = Vec::new();
    let mut reps = Vec::new();
    let mut calls = Calls::default();
    loop {
        let mut rep_calls = Calls::default();
        let mut failure = None;
        probe.tick();
        let at = probe.now();
        let mut s = match setup(seed, Recorder::disabled(), &mut rep_calls) {
            Ok(s) => s,
            Err(e) => {
                report.attempted += 1;
                report.fail(1, e);
                break;
            }
        };
        setups.push((at, s.generate_ms, s.start_ms));
        let rep = rounds(&mut s, &mut rep_calls, &mut failure, Some(&mut probe));
        s.service.shutdown();
        tally(
            report,
            &format!("repetition {}", reps.len() + 1),
            &rep,
            &rep_calls,
            failure,
        );
        for (op, v) in rep_calls.lat {
            calls.lat.entry(op).or_default().extend(v);
        }
        reps.push(rep);
        let last = reps.last().expect("just pushed");
        if report.failed > 0 || started.elapsed().as_secs_f64() + last.wall_raw_s > seconds {
            break;
        }
    }
    if reps.is_empty() {
        return;
    }
    while !enough_setups(&setups) {
        let mut discard = Calls::default();
        probe.tick();
        let at = probe.now();
        match setup(seed, Recorder::disabled(), &mut discard) {
            Ok(s) => {
                setups.push((at, s.generate_ms, s.start_ms));
                s.service.shutdown();
            }
            Err(e) => {
                report.attempted += 1;
                report.fail(1, e);
                break;
            }
        }
    }
    for rep in &mut reps {
        rep.wall_s = probe.at_reference(rep.span.0, rep.span.1);
        for (ms, &at) in rep.round_ms.iter_mut().zip(&rep.round_at) {
            *ms *= probe.speed_at(at);
        }
    }
    let (generate_ms, start_ms) = probe.setups_at_reference(&setups);

    let n = reps.len();
    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let setups: Vec<f64> = generate_ms
        .iter()
        .zip(&start_ms)
        .map(|(g, s)| (g + s) / 1e3)
        .collect();
    report.set("wall_s", median(&walls), n);
    report.set("setup_s", median(&setups), setups.len());
    let med = |f: fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let completed: usize = reps.iter().map(|r| r.jcts_h.len()).sum();
    report.set("avg_jct_h", med(|r| sum_mean(&r.jcts_h)), completed);
    report.notes.push(format!(
        "unbounded (spread across seeds too wide to gate): p99_jct_h {:.4}  makespan_h {:.4}",
        med(|r| percentile(&r.jcts_h, 99.0)),
        med(|r| r.makespan_h)
    ));
    report
        .notes
        .push(format!("wall_s per repetition: {walls:.3?}"));
    let raw_walls: Vec<f64> = reps.iter().map(|r| r.wall_raw_s).collect();
    report.notes.push(format!(
        "raw host s per repetition: {raw_walls:.3?} ({} probes, median {:.1} us)",
        probe.probes(),
        probe.median_probe_ns() / 1e3
    ));
    report.set("stat_eff", med(|r| r.stat_eff), n);
    let all_rounds: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.round_ms.iter().copied())
        .collect();
    let pct = tail_percentile(all_rounds.len(), 99.0);
    report.set(
        "round_p50_ms",
        percentile(&all_rounds, 50.0),
        all_rounds.len(),
    );
    report.set_tail(
        "round_p99_ms",
        percentile(&all_rounds, pct),
        all_rounds.len(),
        pct,
    );

    // Per-layer figures measured from outside on the untraced runs.
    report.set(
        "workload.generate_ms",
        median(&generate_ms),
        generate_ms.len(),
    );
    report.set("service.start_ms", median(&start_ms), start_ms.len());
    let refit_ms: Vec<f64> = calls.of(Op::Refit).iter().map(|us| us / 1e3).collect();
    let rpct = tail_percentile(refit_ms.len(), 99.0);
    report.set("agent.refit_calls", (refit_ms.len() / n) as f64, n);
    report.set(
        "agent.refit_busy_s",
        refit_ms.iter().sum::<f64>() / 1e3 / n as f64,
        refit_ms.len(),
    );
    report.set(
        "agent.refit_p50_ms",
        percentile(&refit_ms, 50.0),
        refit_ms.len(),
    );
    report.set_tail(
        "agent.refit_p99_ms",
        percentile(&refit_ms, rpct),
        refit_ms.len(),
        rpct,
    );
    for (name, op) in [
        ("service.record_iteration_p99_us", Op::RecordIteration),
        ("service.placement_p99_us", Op::Placement),
        ("service.submit_p99_us", Op::Submit),
    ] {
        let v = calls.of(op);
        let p = tail_percentile(v.len(), 99.0);
        report.set_tail(name, percentile(v, p), v.len(), p);
    }
    for name in [
        "simulator.build_ms",
        "simulator.self_s",
        "simulator.report_round_s",
        "simulator.chunk_advance_s",
        "simulator.chunks",
        "simulator.ticks",
        "simulator.mid_chunk_abort_ratio",
        "control.sparse_ratio",
    ] {
        report.set(name, 0.0, 0);
    }

    if traced && report.failed == 0 {
        traced_run(seed, median(&raw_walls), report);
    }
    report.set("peak_rss_mb", peak_rss_mb(), 1);
}

fn sum_mean(v: &[f64]) -> f64 {
    ratio(v.iter().sum(), v.len() as f64)
}

/// The traced run: the service's recorder plus the client's call spans.
fn traced_run(seed: u64, untraced_wall: f64, report: &mut Report) {
    let store = SpanStore::new();
    let mut calls = Calls {
        spans: Some(Arc::clone(&store)),
        ..Default::default()
    };
    let mut failure = None;
    let rec = store.recorder();
    let mut s = match setup(seed, rec.clone(), &mut calls) {
        Ok(s) => s,
        Err(e) => {
            report.attempted += 1;
            report.fail(1, format!("traced run: {e}"));
            return;
        }
    };
    let start = store.now();
    let rep = rounds(&mut s, &mut calls, &mut failure, None);
    let end = store.now();
    s.service.shutdown();
    rec.flush();
    tally(report, "traced run", &rep, &calls, failure);
    let wall = (end - start) as f64 / 1e9;
    let (parts, uncovered) = store.self_times(start, end);
    let part = |l: Label| parts.get(&l).copied().unwrap_or(0.0);
    let calls_self: f64 = parts
        .iter()
        .filter(|(l, _)| matches!(l, Label::Call(_)))
        .map(|(_, s)| s)
        .sum();
    let (plan_s, plans, _) = store.busy(Label::Plan);
    let (ga_s, _, _) = store.busy(Label::GaEvolve);
    let (tb_s, _, _) = store.busy(Label::TableBuild);
    report.set("control.policy_s", plan_s, plans);
    report.set("control.policy_calls", plans as f64, plans);
    report.set("control.self_s", part(Label::Plan), 1);
    report.set("sched.ga_evolve_s", ga_s, 1);
    report.set("sched.table_build_s", tb_s, 1);
    report.set("agent.refit_s", part(Label::Refit), 1);
    report.set(
        "service.self_s",
        calls_self + part(Label::ServiceRound) + part(Label::Wait),
        1,
    );
    let rows = [
        ("bench client (loop bookkeeping)", uncovered),
        ("service calls (minus refits)", calls_self),
        ("service round (minus plan)", part(Label::ServiceRound)),
        ("service wait (round not yet started)", part(Label::Wait)),
        ("control (plan, minus sched)", part(Label::Plan)),
        ("sched (speedup table)", part(Label::TableBuild)),
        ("sched (GA evolve)", part(Label::GaEvolve)),
        ("agent (θsys refits)", part(Label::Refit)),
    ];
    report.self_time_table("live-service", wall, untraced_wall, &rows);
    traced_counters(&store, report);
    let path = std::path::Path::new("perfbench/out").join("live-service.spans.jsonl");
    match store.write_jsonl(&path) {
        Ok(()) => report
            .notes
            .push(format!("spans written to {}", path.display())),
        Err(e) => report.notes.push(format!("spans not written ({e})")),
    }
}

/// Scheduler and agent counters from the traced run's recorder.
fn traced_counters(store: &SpanStore, report: &mut Report) {
    let c = |k: &str| store.counter(k) as f64;
    let evals = c("sched/fitness_evals");
    report.set("sched.generations", c("sched/generations"), 1);
    report.set("sched.fitness_evals", evals, 1);
    report.set(
        "sched.incremental_ratio",
        ratio(c("sched/incremental_evals"), evals),
        1,
    );
    report.set("sched.table_solves", c("sched/table_solves"), 1);
    report.set(
        "sched.table_hit_ratio",
        ratio(
            c("sched/table_hits"),
            c("sched/table_hits") + c("sched/table_misses"),
        ),
        1,
    );
    report.set("agent.refits", c("agent/refits"), 1);
    report.set(
        "agent.warm_accept_ratio",
        ratio(c("agent/refit_warm_accepted"), c("agent/refits")),
        1,
    );
}
