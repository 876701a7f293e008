//! The discrete-time simulation engine.
//!
//! # Macro-stepped, job-major execution
//!
//! [`Simulation::run`] does not iterate tick-by-tick. Between *event
//! horizons* — the next arrival, restart-delay expiry, report tick,
//! scheduling tick, earliest analytically-predicted job completion,
//! and the simulation end — nothing a tick can observe changes except
//! each job's own training progress and the per-tick measurement
//! noise. So the engine computes per-job invariants once per
//! macro-step (interference slowdown, iteration time, throughput, the
//! profiler slot) and advances the intervening ticks **job-major**:
//! each job's whole chunk runs as one tight loop over its private
//! accumulators, making jobs independent work items for
//! [`pollux_sched::parallel_map`]; see `Simulation::advance_chunk`
//! for the exact contract. The original per-tick stepper is retained
//! as [`Simulation::run_reference`], the ground-truth oracle.
//!
//! # Work proportional to change
//!
//! Three shortcuts keep the chunk path from redoing work whose inputs
//! did not move. Each is exact, so none changes a bit of the result:
//!
//! - *Per-job invariants cached across chunks.* A job's placement
//!   shape lives on the [`SimJob`], refreshed only by its one
//!   placement writer (`SimJob::edit_placement`: reallocation,
//!   finish, preemption, cluster resize), and its true iteration time
//!   is memoised per `(shape, batch)`. A chunk reads both in O(1)
//!   instead of scanning the cluster-wide placement row and paying
//!   three `powf`s per job; `chunk_setup` debug-asserts that both
//!   still equal a fresh recomputation.
//! - *Unit efficiency at or below `m0`.* `EFFICIENCY(m)` is
//!   `(φ + m0) / (φ + m0)` there, exactly 1.0 for every admissible φ,
//!   so the per-tick fold and the truncation pre-scan skip evaluating
//!   φ for such jobs (debug builds still evaluate it and compare
//!   bits).
//! - *Slowdown rows reset sparsely.* The interference buffer grows
//!   with arrivals and only the rows the index marked last chunk are
//!   cleared, instead of refilling a vector over every job ever
//!   submitted.
//!
//! [`Simulation::run_reference`] takes none of these shortcuts: it
//! recomputes shape, iteration time, and efficiency from scratch every
//! tick, so it stays an independent oracle for them.
//!
//! The determinism contract is strict: for a fixed seed the
//! macro-stepped engine produces a `SimResult` **bit-identical** to
//! the reference stepper, at any `engine_threads` count (same RNG
//! draw sequence, same f64 addition order per accumulator). The
//! determinism suite in `tests/macro_step.rs` pins this with golden
//! digests and reference-equality proptests.

use crate::config::SimConfig;
use crate::interference::InterferenceIndex;
use crate::job::{JobState, SimJob};
use crate::metrics::{
    ClusterSample, EventKind, JobRecord, JobSample, SchedIntervalSample, SchedulingEvent, SimResult,
};
use crate::policy::{PolicyJobView, SchedulingPolicy};
use pollux_agent::{ObservationRun, ReportPlan};
use pollux_cluster::{ClusterSpec, JobId, NodeId, Topology};
use pollux_control::{Reallocation, RoundPlanner};
use pollux_models::{GradientStats, PlacementShape};
use pollux_sched::parallel_map;
use pollux_telemetry::{Counter, HistogramHandle, NullSink, Recorder};
use pollux_workload::{JobSpec, UserConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A job submission handed to the simulation: the trace record plus
/// the user configuration in effect (tuned or realistic).
pub type Submission = (JobSpec, UserConfig);

/// A complete simulation run: cluster, workload, and policy.
///
/// # Examples
///
/// A minimal policy that gives every job one GPU on the first node
/// with space, simulated over a tiny workload:
///
/// ```
/// use pollux_cluster::{AllocationMatrix, ClusterSpec};
/// use pollux_simulator::{PolicyJobView, SchedulingPolicy, SimConfig, Simulation};
/// use pollux_workload::{TraceConfig, TraceGenerator};
/// use rand::rngs::StdRng;
///
/// struct OneGpuEach;
/// impl SchedulingPolicy for OneGpuEach {
///     fn name(&self) -> &'static str {
///         "one-gpu-each"
///     }
///     fn schedule(
///         &mut self,
///         _now: f64,
///         jobs: &[PolicyJobView<'_>],
///         spec: &ClusterSpec,
///         _rng: &mut StdRng,
///     ) -> AllocationMatrix {
///         let mut m = AllocationMatrix::zeros(jobs.len(), spec.num_nodes());
///         for (j, _) in jobs.iter().enumerate() {
///             let n = j % spec.num_nodes();
///             if m.gpus_used_on(n) < 4 {
///                 m.set(j, n, 1);
///             }
///         }
///         m
///     }
/// }
///
/// let trace = TraceGenerator::new(TraceConfig {
///     num_jobs: 4,
///     duration_hours: 0.2,
///     seed: 3,
///     ..Default::default()
/// })
/// .unwrap()
/// .generate();
/// let workload = trace.into_iter().map(|j| {
///     let user = j.tuned;
///     (j, user)
/// }).collect();
/// let sim = SimConfig {
///     max_sim_time: 24.0 * 3600.0,
///     ..Default::default()
/// };
/// let result = Simulation::new(sim, ClusterSpec::homogeneous(2, 4).unwrap(), OneGpuEach, workload)
///     .unwrap()
///     .run();
/// assert_eq!(result.records.len(), 4);
/// assert!(result.avg_jct().is_some());
/// ```
pub struct Simulation<P: SchedulingPolicy> {
    config: SimConfig,
    spec: ClusterSpec,
    policy: P,
    /// The shared control-plane round pipeline (also driven by the
    /// live `ClusterService` in `pollux-core`): invokes the policy,
    /// clamps its matrix, and diffs placements into reallocation
    /// decisions the engine applies.
    planner: RoundPlanner,
    /// Not-yet-submitted jobs, sorted by ascending submit time.
    arrivals: Vec<Submission>,
    /// Spawned jobs (active and finished).
    jobs: Vec<SimJob>,
    /// Indices of non-finished jobs, ascending. Maintained
    /// incrementally (push on spawn, remove on finish) so the hot
    /// paths never scan finished jobs. Ascending order matters: it is
    /// what keeps the per-job RNG draw sequence identical to a full
    /// index-order scan.
    active: Vec<usize>,
    rng: StdRng,
    series: Vec<ClusterSample>,
    events: Vec<SchedulingEvent>,
    job_series: Vec<JobSample>,
    sched_stats: Vec<SchedIntervalSample>,
    node_seconds: f64,
    /// Reused interference buffer, indexed by job (all jobs, not just
    /// active ones, so stale entries can never alias a live index).
    /// Grown by one zero per arrival; between chunks only the rows in
    /// `slowed` are nonzero.
    slowdown: Vec<f64>,
    /// Rows of `slowdown` the interference index marked on the last
    /// refresh (possibly repeated): the only rows the next refresh has
    /// to reset.
    slowed: Vec<u32>,
    /// Incremental interference index: per-node occupant sets and
    /// per-job node counts, updated on placement deltas (reallocation,
    /// finish, resize) so each macro-step's interference query costs
    /// O(nodes + occupancy) instead of a full O(active · nodes)
    /// placement rescan. Maintained on both steppers; only the macro
    /// path reads it (the reference stepper keeps its verbatim scan).
    interference: InterferenceIndex,
    /// Recycled (always empty) allocation for the per-interval policy
    /// views; see [`take_views`] / [`store_views`].
    view_buf: Vec<PolicyJobView<'static>>,
    /// Recycled per-macro-step job contexts.
    chunk_buf: Vec<ChunkCtx>,
    /// Recycled per-tick finish list.
    finished_buf: Vec<(usize, JobId)>,
    /// Recycled measurement-noise buffer for the job-major chunk pass:
    /// `truncated × n_run` eps values, drawn serially in the tick-major
    /// RNG order but stored transposed (each running job's draws form
    /// one contiguous column) so the per-job loop streams its column.
    eps_buf: Vec<f64>,
    /// Telemetry handle (disabled by default; see
    /// [`Simulation::with_recorder`]). Purely observational: the
    /// determinism suite proves a `SimResult` is bit-identical with
    /// recording on, off, or compiled out.
    recorder: Recorder,
    /// Hoisted counter/histogram handles for the engine hot path.
    telem: EngineTelemetry,
    /// Cumulative restart count across all jobs (feeds the
    /// `engine/cluster_sample` time-series; per-job counts live on
    /// the job records).
    restarts_total: u64,
}

/// Counter and histogram handles hoisted out of the engine hot path:
/// one atomic add per touch, no registry lookup. All fields are inert
/// ZSTs when the `telemetry` feature is off, and no-op handles when no
/// recorder is attached.
#[derive(Default)]
struct EngineTelemetry {
    /// Macro-steps executed.
    chunks: Counter,
    /// Ticks advanced (sum of chunk lengths).
    ticks: Counter,
    /// Chunks cut short by a mid-chunk job completion.
    mid_chunk_aborts: Counter,
    /// Interference-vector recomputations (one per macro-step).
    interference_recomputes: Counter,
    /// Which event horizon bounded each chunk.
    horizon_report: Counter,
    horizon_sched: Counter,
    horizon_arrival: Counter,
    horizon_restart: Counter,
    horizon_end: Counter,
    /// Distribution of chunk lengths in ticks.
    chunk_ticks: HistogramHandle,
    /// θsys refits computed through the parallel report-round fan-out
    /// (equals `agent/refits` attempts issued by the engine; kept
    /// separate so captures show how much refit work was parallelizable).
    refits_parallel: Counter,
}

impl EngineTelemetry {
    fn new(rec: &Recorder) -> Self {
        Self {
            chunks: rec.counter("engine", "chunks"),
            ticks: rec.counter("engine", "ticks"),
            mid_chunk_aborts: rec.counter("engine", "mid_chunk_aborts"),
            interference_recomputes: rec.counter("engine", "interference_recomputes"),
            horizon_report: rec.counter("engine", "horizon_report"),
            horizon_sched: rec.counter("engine", "horizon_sched"),
            horizon_arrival: rec.counter("engine", "horizon_arrival"),
            horizon_restart: rec.counter("engine", "horizon_restart"),
            horizon_end: rec.counter("engine", "horizon_end"),
            chunk_ticks: rec.histogram("engine", "chunk_ticks"),
            refits_parallel: rec.counter("agent", "refits_parallel"),
        }
    }
}

/// Per-job invariants hoisted for one macro-step: between event
/// horizons everything here is constant — placement, batch size, and
/// interference only change on boundaries, and the chunk aborts at the
/// first job completion. Statistical efficiency is *not* hoisted: it
/// depends on the job's own progress, which moves every tick.
struct ChunkCtx {
    /// Index into `Simulation::jobs`.
    idx: usize,
    /// GPU-seconds accrued per tick (`gpus · dt`).
    gpu_dt: f64,
    /// Present for `Running` jobs holding GPUs; `None` for
    /// `Restarting` jobs, which only accrue GPU time.
    run: Option<RunCtx>,
}

struct RunCtx {
    /// Batch size in effect.
    batch: u64,
    /// `batch ≤ m0`: statistical efficiency is exactly 1.0 whatever
    /// the job's progress (see [`RunCtx::efficiency`]).
    unit_eff: bool,
    /// Total work (examples at m0-efficiency) at which the job ends.
    work: f64,
    /// True throughput after interference (examples/s).
    throughput: f64,
    /// Per-tick raw-example increment (`throughput · dt`).
    tput_dt: f64,
    /// Iteration time the agent observes before measurement noise
    /// (`t_iter / (1 − slowdown)`; interference is indistinguishable
    /// from slowness to the agent).
    t_base: f64,
    /// This job's column in the chunk's eps buffer: its position among
    /// the running contexts, in ascending job order.
    col: usize,
    /// Open profiler batch for this job's `(shape, batch)` key.
    obs: ObservationRun,
}

impl RunCtx {
    /// The job's true statistical efficiency at `progress`. At or
    /// below `m0` this is `(φ + m0) / (φ + m0)`, which is exactly 1.0
    /// for every finite or infinite φ, so φ is not evaluated; debug
    /// builds still evaluate it and compare bits.
    fn efficiency(&self, job: &SimJob, progress: f64) -> f64 {
        if self.unit_eff {
            debug_assert_eq!(
                job.true_efficiency_at(progress, self.batch).to_bits(),
                1.0f64.to_bits(),
                "unit-efficiency fast path diverged from the efficiency model"
            );
            1.0
        } else {
            job.true_efficiency_at(progress, self.batch)
        }
    }
}

struct ChunkOutcome {
    /// Ticks actually executed (≥ 1; short on early completion).
    ticks: u64,
    /// Whether the simulation is over (no arrivals left, all jobs
    /// finished).
    exit: bool,
}

/// Per-job result of one job-major chunk stripe, computed against
/// immutable state on a worker thread and committed serially in job
/// order.
struct JobOutcome {
    /// The job's attained service after the chunk (seeded from the
    /// chunk-start value, advanced by the identical per-tick `+=`
    /// sequence, committed absolutely via `JobLifecycle::set_gputime`).
    gputime: f64,
    /// Present for running jobs; `None` for restarting ones, which
    /// only accrue GPU time.
    run: Option<RunOutcome>,
}

struct RunOutcome {
    /// Training progress after the chunk.
    progress: f64,
    /// Raw examples processed after the chunk.
    examples: f64,
    /// Whether progress crossed the job's total work. By the
    /// truncation pre-scan's construction this can only happen on the
    /// chunk's final tick.
    finished: bool,
    /// The advanced profiler batch (clone of the context's snapshot,
    /// fed the identical observation sequence).
    obs: ObservationRun,
}

/// Serial phase-1 output of one report round entry: everything the
/// parallel plan phase needs, captured (and RNG-drawn) in job order.
struct ReportPrep {
    /// Index into `Simulation::jobs`.
    idx: usize,
    /// The noisy gradient-statistics observation for this round.
    stats: Option<GradientStats>,
    /// Whether the refit trigger fired (profiler gained information).
    refit: bool,
    /// Profiler configuration count at trigger evaluation, committed
    /// to `last_fit_configs` when the fit succeeds.
    configs: usize,
    /// Profiler sample count at trigger evaluation.
    samples: u64,
    /// The placement to tune the batch size for (batch-adaptive
    /// policies only).
    tune_shape: Option<PlacementShape>,
}

/// Jobs per job-major work item. Each job's per-tick efficiency is a
/// serial dependency chain (`progress → φ(progress) → progress`), so a
/// one-job stripe is latency-bound on that chain; interleaving a small
/// fixed block of independent jobs tick-by-tick keeps several chains
/// in flight and makes the loop throughput-bound instead, exactly like
/// the tick-major sweep — while the per-job working set (a block, not
/// the whole cluster) stays cache-resident. The count is a fixed
/// constant so the job → work-item mapping, and therefore the result,
/// is independent of `engine_threads`.
const STRIPE_BLOCK: usize = 8;

/// Advances one block of up to [`STRIPE_BLOCK`] jobs over the whole
/// (truncated) chunk: the job-major inner loop. Pure — reads the
/// frozen contexts/jobs and returns per-job accumulators.
///
/// The loop is tick-outer *within the block* for instruction-level
/// parallelism (see [`STRIPE_BLOCK`]), but every accumulator is
/// per-job: each job's `progress`, `examples`, `gputime`, and profiler
/// sum advance by operand-for-operand the tick-major sequence
/// (efficiency at the job's own moving progress, then the `+=`
/// accumulations, then the noisy observation). Accumulators of
/// different jobs never interact, so interleaving leaves every job's
/// bits identical to a standalone fold.
fn advance_job_block(
    block: &[ChunkCtx],
    jobs: &[SimJob],
    tlen: usize,
    eps: &[f64],
    dt: f64,
) -> [Option<JobOutcome>; STRIPE_BLOCK] {
    debug_assert!(!block.is_empty() && block.len() <= STRIPE_BLOCK);
    let mut gputime = [0.0f64; STRIPE_BLOCK];
    let mut progress = [0.0f64; STRIPE_BLOCK];
    let mut examples = [0.0f64; STRIPE_BLOCK];
    let mut obs: [Option<ObservationRun>; STRIPE_BLOCK] = Default::default();
    for (k, ctx) in block.iter().enumerate() {
        let job = &jobs[ctx.idx];
        gputime[k] = job.lifecycle.gputime();
        if let Some(rs) = &ctx.run {
            progress[k] = job.progress;
            examples[k] = job.examples_processed;
            obs[k] = Some(rs.obs.clone());
        }
    }
    for t in 0..tlen {
        for (k, ctx) in block.iter().enumerate() {
            let Some(rs) = &ctx.run else {
                // Restarting: only GPU time accrues, one add per tick.
                gputime[k] += ctx.gpu_dt;
                continue;
            };
            let eff = rs.efficiency(&jobs[ctx.idx], progress[k]);
            progress[k] += rs.throughput * eff * dt;
            examples[k] += rs.tput_dt;
            gputime[k] += ctx.gpu_dt;
            let eps_t = eps[rs.col * tlen + t];
            obs[k]
                .as_mut()
                .expect("running ctx has an open run")
                .observe(rs.t_base * (1.0 + eps_t));
            debug_assert!(
                progress[k] < rs.work || t + 1 == tlen,
                "job crossed its work mid-chunk: the truncation pre-scan missed a finish"
            );
        }
    }
    let mut out: [Option<JobOutcome>; STRIPE_BLOCK] = Default::default();
    for (k, ctx) in block.iter().enumerate() {
        out[k] = Some(JobOutcome {
            gputime: gputime[k],
            run: ctx.run.as_ref().map(|rs| RunOutcome {
                progress: progress[k],
                examples: examples[k],
                finished: progress[k] >= rs.work,
                obs: obs[k].take().expect("running ctx has an open run"),
            }),
        });
    }
    out
}

/// Removes every finished index from `active` in one ordered merge.
/// Both lists are ascending (`active` by maintenance invariant,
/// `finished` because finishes are detected in ascending job order),
/// so a two-pointer sweep replaces the old O(active × finished)
/// `retain(.. any ..)` scan.
fn remove_finished_from_active(active: &mut Vec<usize>, finished: &[(usize, JobId)]) {
    debug_assert!(finished.windows(2).all(|w| w[0].0 < w[1].0));
    let mut f = 0;
    active.retain(|&i| {
        while f < finished.len() && finished[f].0 < i {
            f += 1;
        }
        f >= finished.len() || finished[f].0 != i
    });
}

/// First tick index `t >= lo` whose wall-clock time `t · dt` is at or
/// after `time`. A float division seeds the guess and two integer
/// adjustment loops (at most a step or two each) make the answer exact
/// regardless of rounding in the division.
fn first_tick_at_or_after(time: f64, dt: f64, lo: u64) -> u64 {
    let guess = time / dt;
    if !guess.is_finite() || guess >= 9.0e18 {
        return u64::MAX; // Beyond any horizon; callers min() against max_ticks.
    }
    let mut t = guess.ceil().max(0.0) as u64;
    while t > 0 && (t - 1) as f64 * dt >= time {
        t -= 1;
    }
    while (t as f64) * dt < time {
        t += 1;
    }
    t.max(lo)
}

/// Takes the engine's recycled view buffer, re-borrowing its (empty)
/// allocation at the shorter lifetime of the current interval — a
/// plain covariant coercion, no unsafe needed in this direction.
fn take_views<'a>(buf: &mut Vec<PolicyJobView<'static>>) -> Vec<PolicyJobView<'a>> {
    std::mem::take(buf)
}

/// Stores an interval's view buffer back for reuse. Only the
/// allocation survives: the vector is emptied first, so no borrow with
/// the interval's lifetime escapes into the `'static` slot.
fn store_views(buf: &mut Vec<PolicyJobView<'static>>, mut views: Vec<PolicyJobView<'_>>) {
    views.clear();
    let mut views = std::mem::ManuallyDrop::new(views);
    let (ptr, cap) = (views.as_mut_ptr(), views.capacity());
    // SAFETY: `views` is empty, so the allocation holds no value of
    // the shorter lifetime — only raw capacity is reused. The
    // (ptr, 0, cap) triple comes from a live Vec whose buffer is not
    // freed (ManuallyDrop), `PolicyJobView` has no drop glue, and the
    // cast only changes the lifetime parameter of the *element type*
    // of an element-less buffer (size and alignment are unchanged).
    *buf = unsafe { Vec::from_raw_parts(ptr.cast::<PolicyJobView<'static>>(), 0, cap) };
}

/// Why a [`Simulation`] could not be built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimBuildError {
    /// The [`SimConfig`] failed validation (non-positive tick size,
    /// intervals, horizon, or restart delay).
    InvalidConfig,
    /// The workload contains no submissions.
    EmptyWorkload,
    /// A submission's submit time is NaN or infinite, so it has no
    /// meaningful position in the arrival order.
    NonFiniteSubmitTime,
}

impl std::fmt::Display for SimBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::InvalidConfig => write!(f, "invalid simulation config"),
            Self::EmptyWorkload => write!(f, "workload has no submissions"),
            Self::NonFiniteSubmitTime => write!(f, "submission with non-finite submit time"),
        }
    }
}

impl std::error::Error for SimBuildError {}

impl<P: SchedulingPolicy> Simulation<P> {
    /// Creates a simulation. Returns `None` when [`Self::try_new`]
    /// would fail; kept as the concise constructor for tests and
    /// examples that don't care which input was bad.
    pub fn new(
        config: SimConfig,
        spec: ClusterSpec,
        policy: P,
        workload: Vec<Submission>,
    ) -> Option<Self> {
        Self::try_new(config, spec, policy, workload).ok()
    }

    /// Creates a simulation, reporting *why* the inputs were rejected.
    ///
    /// # Errors
    ///
    /// - [`SimBuildError::InvalidConfig`] when the config fails
    ///   validation;
    /// - [`SimBuildError::EmptyWorkload`] when no jobs are submitted;
    /// - [`SimBuildError::NonFiniteSubmitTime`] when a submit time is
    ///   NaN or infinite (the old `partial_cmp(..).unwrap_or(Equal)`
    ///   sort silently produced an arbitrary arrival order).
    pub fn try_new(
        config: SimConfig,
        spec: ClusterSpec,
        mut policy: P,
        mut workload: Vec<Submission>,
    ) -> Result<Self, SimBuildError> {
        let config = config.validated().ok_or(SimBuildError::InvalidConfig)?;
        if workload.is_empty() {
            return Err(SimBuildError::EmptyWorkload);
        }
        if workload.iter().any(|(s, _)| !s.submit_time.is_finite()) {
            return Err(SimBuildError::NonFiniteSubmitTime);
        }
        policy.configure_parallelism(config.sched_threads);
        if config.nodes_per_rack > 0 {
            if let Some(topo) = Topology::grouped(spec.num_nodes() as u32, config.nodes_per_rack) {
                policy.configure_topology(Some(&topo));
            }
        }
        workload.sort_by(|a, b| a.0.submit_time.total_cmp(&b.0.submit_time));
        workload.reverse(); // Pop from the back in time order.
        let seed = config.seed;
        let num_nodes = spec.num_nodes();
        Ok(Self {
            config,
            spec,
            policy,
            planner: RoundPlanner::new(),
            arrivals: workload,
            jobs: Vec::new(),
            active: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
            series: Vec::new(),
            events: Vec::new(),
            job_series: Vec::new(),
            sched_stats: Vec::new(),
            node_seconds: 0.0,
            slowdown: Vec::new(),
            slowed: Vec::new(),
            interference: InterferenceIndex::new(num_nodes),
            view_buf: Vec::new(),
            chunk_buf: Vec::new(),
            finished_buf: Vec::new(),
            eps_buf: Vec::new(),
            recorder: Recorder::disabled(),
            telem: EngineTelemetry::default(),
            restarts_total: 0,
        })
    }

    /// Attaches a telemetry recorder to the simulation and its policy.
    ///
    /// Recording is observational only: it never draws from the
    /// simulation RNG or perturbs any f64 accumulation, so the
    /// resulting `SimResult` is bit-identical with or without a
    /// recorder (pinned by the golden-digest suite in
    /// `tests/macro_step.rs`).
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.telem = EngineTelemetry::new(&recorder);
        // Identify the policy in the capture so reports and Chrome
        // traces from different zoo runs are self-describing; staged
        // policies additionally emit their per-stage names from
        // `attach_telemetry`.
        recorder.meta("sched", "policy", self.policy.name());
        self.policy.attach_telemetry(recorder.clone());
        self.planner.attach_telemetry(recorder.clone());
        // Topology metadata for trace consumers (the Chrome exporter
        // groups node tracks by rack from this point).
        recorder.point(
            "engine",
            "topology",
            0.0,
            &[
                ("num_nodes", self.spec.num_nodes() as f64),
                ("nodes_per_rack", f64::from(self.config.nodes_per_rack)),
            ],
        );
        self.recorder = recorder;
        self
    }

    /// `POLLUX_SIM_DEBUG` support: mirror every telemetry event to
    /// stderr as JSONL. When no recorder is attached, a throwaway
    /// `NullSink` recorder is created so the mirror alone works — the
    /// engine hot path carries no ad-hoc debug branches.
    fn init_debug_mirror(&mut self) {
        if std::env::var_os("POLLUX_SIM_DEBUG").is_some() {
            if !self.recorder.is_enabled() {
                let rec = Recorder::new(std::sync::Arc::new(NullSink));
                self.telem = EngineTelemetry::new(&rec);
                self.policy.attach_telemetry(rec.clone());
                self.planner.attach_telemetry(rec.clone());
                self.recorder = rec;
            }
            self.recorder.enable_stderr_mirror();
        }
    }

    /// Runs the simulation to completion (all jobs finished) or to the
    /// configured time horizon, and returns the metrics.
    ///
    /// Macro-stepped and job-major: boundary work (arrivals, wake-ups,
    /// reports, scheduling) happens at event horizons; the ticks in
    /// between run through `Self::advance_chunk` with per-job
    /// invariants hoisted and each job advanced over its whole chunk
    /// in one stripe. Bit-identical to [`Self::run_reference`] for any
    /// fixed seed, at any `engine_threads` count.
    pub fn run(mut self) -> SimResult {
        let dt = self.config.tick_seconds;
        let sched_every = (self.config.sched_interval / dt).round().max(1.0) as u64;
        let report_every = (self.config.report_interval / dt).round().max(1.0) as u64;
        let max_ticks = (self.config.max_sim_time / dt).ceil() as u64;
        self.init_debug_mirror();

        let mut now = 0.0;
        let mut tick = 0u64;
        while tick < max_ticks {
            now = tick as f64 * dt;
            self.tick_boundaries(tick, now, report_every, sched_every);
            let horizon = self.next_horizon(tick, dt, report_every, sched_every, max_ticks);
            let chunk = self.advance_chunk(tick, horizon, dt);
            tick += chunk.ticks;
            now = (tick - 1) as f64 * dt;
            if chunk.exit {
                now += dt;
                break;
            }
        }

        self.sample(now);
        self.finalize(now)
    }

    /// The retained per-tick reference stepper: the pre-macro-step
    /// engine, advancing one tick at a time with no hoisted
    /// invariants. Kept as the ground truth the determinism suite and
    /// `bench_sim` compare [`Self::run`] against.
    pub fn run_reference(mut self) -> SimResult {
        let dt = self.config.tick_seconds;
        let sched_every = (self.config.sched_interval / dt).round().max(1.0) as u64;
        let report_every = (self.config.report_interval / dt).round().max(1.0) as u64;
        let max_ticks = (self.config.max_sim_time / dt).ceil() as u64;
        self.init_debug_mirror();

        let mut now = 0.0;
        for tick in 0..max_ticks {
            now = tick as f64 * dt;
            self.tick_boundaries(tick, now, report_every, sched_every);
            self.advance_tick_reference(now, dt);
            self.node_seconds += self.spec.num_nodes() as f64 * dt;

            // The pre-refactor early-exit check: a full scan over the
            // job list every tick (the macro path folds this into its
            // finish handling).
            if self.arrivals.is_empty() && self.jobs.iter().all(SimJob::is_finished) {
                now += dt;
                break;
            }
        }

        self.sample(now);
        self.finalize(now)
    }

    /// Everything that may only happen on a tick boundary: arrivals,
    /// restart wake-ups, agent reports, rescheduling, sampling. Safe
    /// to call on non-boundary ticks (each action no-ops when not
    /// due), which is what makes resuming after a mid-chunk job
    /// completion trivial.
    fn tick_boundaries(&mut self, tick: u64, now: f64, report_every: u64, sched_every: u64) {
        self.spawn_arrivals(now);
        self.wake_restarts(now);

        if tick.is_multiple_of(report_every) {
            self.report_and_tune(now);
        }
        if tick.is_multiple_of(sched_every) {
            self.reschedule(now);
            self.sample(now);
        }
    }

    /// The next event horizon after `tick` (exclusive chunk end, in
    /// `(tick, max_ticks]`): the earliest of the next report tick,
    /// next scheduling tick, next arrival, next restart-delay expiry,
    /// and the end of simulated time. Job completions are handled by
    /// the chunk itself (prediction inside [`Self::advance_chunk`]
    /// plus an authoritative per-tick check).
    ///
    /// Telemetry: bumps the `engine/horizon_*` counter of whichever
    /// source won (strictly earliest; ties go to the first candidate
    /// in end → report → sched → arrival → restart order). Counter
    /// handles use interior mutability, so `&self` suffices.
    fn next_horizon(
        &self,
        tick: u64,
        dt: f64,
        report_every: u64,
        sched_every: u64,
        max_ticks: u64,
    ) -> u64 {
        let mut horizon = max_ticks;
        let mut fired = &self.telem.horizon_end;
        let report = (tick / report_every + 1) * report_every;
        if report < horizon {
            horizon = report;
            fired = &self.telem.horizon_report;
        }
        let sched = (tick / sched_every + 1) * sched_every;
        if sched < horizon {
            horizon = sched;
            fired = &self.telem.horizon_sched;
        }
        if let Some((spec, _)) = self.arrivals.last() {
            let arrival = first_tick_at_or_after(spec.submit_time, dt, tick + 1);
            if arrival < horizon {
                horizon = arrival;
                fired = &self.telem.horizon_arrival;
            }
        }
        for &i in &self.active {
            if let JobState::Restarting { until } = self.jobs[i].state() {
                let wake = first_tick_at_or_after(until, dt, tick + 1);
                if wake < horizon {
                    horizon = wake;
                    fired = &self.telem.horizon_restart;
                }
            }
        }
        fired.add(1);
        horizon.max(tick + 1)
    }

    /// Builds the per-job chunk contexts: refreshes interference,
    /// reads the per-job invariants (cached shape, memoised iteration
    /// time), opens the profiler runs, and applies the analytic
    /// completion lower bound to the chunk length. Returns the context
    /// vector (taken from the recycled buffer), the bounded chunk
    /// length, and the number of running (GPU-holding) contexts.
    fn chunk_setup(&mut self, start: u64, horizon: u64, dt: f64) -> (Vec<ChunkCtx>, u64, usize) {
        self.compute_interference();
        // `compute_interference` sizes the vector to the full job
        // list; a shorter vector would silently under-slow the jobs
        // it misses, so fail loudly instead of defaulting to 0.
        debug_assert_eq!(
            self.slowdown.len(),
            self.jobs.len(),
            "interference slowdown vector must cover every job"
        );
        let mut ctxs = std::mem::take(&mut self.chunk_buf);
        let mut max_len = horizon - start;
        let mut n_run = 0usize;

        let jobs = &mut self.jobs;
        for &idx in &self.active {
            let job = &mut jobs[idx];
            debug_assert!(
                job.placement_cache_is_coherent(),
                "job {idx}: cached shape / t_iter diverged from a fresh recomputation"
            );
            let shape = job.placed_shape();
            match job.state() {
                JobState::Running => {}
                JobState::Restarting { .. } => {
                    ctxs.push(ChunkCtx {
                        idx,
                        gpu_dt: shape.map_or(0, |s| s.gpus) as f64 * dt,
                        run: None,
                    });
                    continue;
                }
                _ => continue,
            }
            let Some(shape) = shape else { continue };
            let m = job.batch_size;
            let slow = self.slowdown[idx];
            let t_iter = job.memo_t_iter(shape);
            let throughput = (m as f64 / t_iter) * (1.0 - slow);
            let tput_dt = throughput * dt;

            // Earliest analytically-predicted completion: efficiency
            // ≤ 1, so progress grows by at most `throughput · dt` per
            // tick and the job cannot finish in fewer than
            // ⌊remaining / (throughput · dt)⌋ ticks. Purely a
            // chunk-length heuristic — the finish detection stays
            // authoritative, so correctness never depends on it.
            let remaining = job.spec.work - job.progress;
            if tput_dt > 0.0 && remaining > 0.0 {
                let lb = (remaining / tput_dt).floor();
                if lb.is_finite() && lb >= 1.0 {
                    max_len = max_len.min(if lb >= 9.0e18 { u64::MAX } else { lb as u64 });
                }
            }

            let obs = job.agent.begin_observation_run(shape, m);
            ctxs.push(ChunkCtx {
                idx,
                gpu_dt: shape.gpus as f64 * dt,
                run: Some(RunCtx {
                    batch: m,
                    unit_eff: m <= job.profile.m0,
                    work: job.spec.work,
                    throughput,
                    tput_dt,
                    t_base: t_iter / (1.0 - slow),
                    col: n_run,
                    obs,
                }),
            });
            n_run += 1;
        }
        (ctxs, max_len, n_run)
    }

    /// Advances up to `horizon - start` ticks **job-major**: each job's
    /// whole chunk runs as one tight loop over its private accumulators
    /// (an independent `parallel_map` work item), with results
    /// committed serially in job order.
    ///
    /// The pass is structured so every observable stays bit-identical
    /// to a tick-major sweep (the reference stepper's order):
    /// 1. *Truncation pre-scan* (serial). The measurement noise only
    ///    feeds the profiler — progress never sees it — so each job's
    ///    finish tick is computable before any eps is drawn. Candidate
    ///    jobs (`remaining ≤ cap · tput_dt`, with slack for f64
    ///    rounding) replay their progress fold to find the first
    ///    crossing; the chunk truncates at the earliest one, which is
    ///    exactly where the reference stepper sees its first finish.
    /// 2. *eps pre-draw* (serial). Exactly `truncated × n_run` draws in
    ///    the tick-major order — per tick, ascending job order — stored
    ///    transposed so each job's draws form one contiguous column.
    ///    The RNG stream is untouched: same count, same order.
    /// 3. *Job stripes* (parallelizable, `engine_threads`). Fixed
    ///    blocks of [`STRIPE_BLOCK`] jobs fold their whole chunk over
    ///    their eps columns ([`advance_job_block`]): per-job
    ///    accumulators see the identical operand sequence as the
    ///    tick-major sweep, and `node_seconds` is the only cross-job
    ///    accumulator — advanced serially at commit by the same
    ///    per-tick additions.
    /// 4. *Commit* (serial, ascending job order): write back progress /
    ///    examples / gputime, record the profiler runs, finish jobs
    ///    that crossed (only possible on the final tick, by step 1),
    ///    and emit events — all in the tick-major order.
    fn advance_chunk(&mut self, start: u64, horizon: u64, dt: f64) -> ChunkOutcome {
        let noise = self.config.measurement_noise;
        let threads = self.config.engine_threads.max(1);
        let node_dt = self.spec.num_nodes() as f64 * dt;
        let arrivals_empty = self.arrivals.is_empty();

        let (mut ctxs, max_len, n_run) = self.chunk_setup(start, horizon, dt);

        // Truncation pre-scan: find the earliest finish tick across
        // jobs (1-based, ≤ the current cap). A job can cross `work`
        // within `cap` ticks only if `remaining ≤ cap · tput_dt`
        // (efficiency ≤ 1); the 1e-6 slack over-approximates f64
        // rounding in the progress fold, so a real finisher is never
        // filtered out — at worst a non-finisher replays its fold.
        // Candidates replay the exact progress arithmetic (same
        // operands as the main stripe), so the detected tick is exact.
        let mut truncated = max_len;
        for ctx in &ctxs {
            let Some(rs) = &ctx.run else { continue };
            let job = &self.jobs[ctx.idx];
            let remaining = rs.work - job.progress;
            if remaining > 0.0 && remaining > truncated as f64 * rs.tput_dt * (1.0 + 1e-6) {
                continue;
            }
            let mut progress = job.progress;
            for t in 1..=truncated {
                let eff = rs.efficiency(job, progress);
                progress += rs.throughput * eff * dt;
                if progress >= rs.work {
                    truncated = t;
                    break;
                }
            }
        }
        let tlen = truncated as usize;

        // eps pre-draw: tick-major draw order, job-major (transposed)
        // storage. Nothing else draws inside a chunk.
        let mut eps = std::mem::take(&mut self.eps_buf);
        eps.clear();
        eps.resize(n_run * tlen, 0.0);
        {
            let rng = &mut self.rng;
            for t in 0..tlen {
                for ctx in &ctxs {
                    let Some(rs) = &ctx.run else { continue };
                    eps[rs.col * tlen + t] = rng.gen_range(-noise..=noise);
                }
            }
        }

        // Job stripes: pure per-block folds over immutable state, in
        // fixed blocks of `STRIPE_BLOCK` jobs (see its doc for why).
        // With `engine_threads <= 1` this runs inline with no spawns.
        let outcomes = {
            let jobs: &[SimJob] = &self.jobs;
            let ctxs_ref: &[ChunkCtx] = &ctxs;
            let eps_ref: &[f64] = &eps;
            let n_blocks = ctxs_ref.len().div_ceil(STRIPE_BLOCK);
            parallel_map(n_blocks, threads, |b| {
                let lo = b * STRIPE_BLOCK;
                let hi = (lo + STRIPE_BLOCK).min(ctxs_ref.len());
                advance_job_block(&ctxs_ref[lo..hi], jobs, tlen, eps_ref, dt)
            })
        };

        // Serial commit in job order.
        let finish_now = (start + truncated - 1) as f64 * dt;
        let mut finished = std::mem::take(&mut self.finished_buf);
        let jobs = &mut self.jobs;
        let outs = outcomes.into_iter().flatten().flatten();
        for (ctx, out) in ctxs.iter().zip(outs) {
            let job = &mut jobs[ctx.idx];
            job.lifecycle.set_gputime(out.gputime);
            let Some(run) = out.run else { continue };
            job.progress = run.progress;
            job.examples_processed = run.examples;
            if run.finished {
                job.lifecycle.finish(finish_now + dt);
                self.interference.clear_job(ctx.idx, &job.placement);
                job.edit_placement(|p| p.fill(0));
                finished.push((ctx.idx, job.spec.id));
            }
            // Commit the batched profiler observations (including for
            // jobs that just finished — the reference stepper records
            // up to and including the finish tick too).
            job.agent.record_observation_run(run.obs);
        }
        for _ in 0..truncated {
            self.node_seconds += node_dt;
        }
        let mut exit = false;
        if !finished.is_empty() {
            for &(_, id) in finished.iter() {
                self.events.push(SchedulingEvent {
                    time: finish_now + dt,
                    job: id,
                    kind: EventKind::Finished,
                    gpus: 0,
                });
            }
            remove_finished_from_active(&mut self.active, &finished);
            exit = arrivals_empty && self.active.is_empty();
        }

        ctxs.clear();
        self.chunk_buf = ctxs;
        finished.clear();
        self.finished_buf = finished;
        eps.clear();
        self.eps_buf = eps;

        self.telem.chunks.add(1);
        self.telem.ticks.add(truncated);
        self.telem.chunk_ticks.observe(truncated);
        if truncated < horizon - start {
            // A completion (or its prediction) cut the chunk short of
            // its event horizon.
            self.telem.mid_chunk_aborts.add(1);
        }

        ChunkOutcome {
            ticks: truncated,
            exit,
        }
    }

    /// Advances training for one tick — the reference stepper's inner
    /// loop, a faithful retention of the pre-refactor engine's
    /// `advance` body *including its cost profile*: a fresh
    /// interference vector allocated every tick, a scan over every job
    /// (finished ones included), `t_iter`/efficiency recomputed from
    /// scratch, and each noisy sample recorded individually through
    /// the profiler's `BTreeMap`.
    ///
    /// The one departure is bookkeeping the macro path's shared
    /// boundary code requires: finished jobs are also pruned from
    /// `self.active` (the pre-refactor engine had no active index and
    /// re-scanned all jobs instead). That pruning — the same ordered
    /// merge the macro paths use — runs only on finish ticks and never
    /// changes the trajectory.
    fn advance_tick_reference(&mut self, now: f64, dt: f64) {
        let slowdown = self.interference_slowdowns_reference();
        let noise = self.config.measurement_noise;
        let mut finished = Vec::new();
        for (idx, job) in self.jobs.iter_mut().enumerate() {
            match job.state() {
                JobState::Running => {}
                JobState::Restarting { .. } => {
                    let gpu_dt = job.gpus() as f64 * dt;
                    job.lifecycle.accrue_gputime(gpu_dt);
                    continue;
                }
                _ => continue,
            }
            let Some(shape) = job.shape() else { continue };
            let m = job.batch_size;
            let slow = slowdown.get(idx).copied().unwrap_or(0.0);
            let t_iter = job.true_t_iter(shape, m);
            let throughput = (m as f64 / t_iter) * (1.0 - slow);
            let eff = job.true_efficiency(m);
            job.progress += throughput * eff * dt;
            job.examples_processed += throughput * dt;
            job.lifecycle.accrue_gputime(shape.gpus as f64 * dt);

            // The agent observes a noisy iteration time (including any
            // interference slowdown, which it cannot distinguish).
            let eps: f64 = self.rng.gen_range(-noise..=noise);
            let t_obs = t_iter / (1.0 - slow) * (1.0 + eps);
            job.agent.observe_iteration(shape, m, t_obs);

            if job.progress >= job.spec.work {
                job.lifecycle.finish(now + dt);
                self.interference.clear_job(idx, &job.placement);
                job.edit_placement(|p| p.fill(0));
                finished.push((idx, job.spec.id));
            }
        }
        for &(_, id) in finished.iter() {
            self.events.push(SchedulingEvent {
                time: now + dt,
                job: id,
                kind: EventKind::Finished,
                gpus: 0,
            });
        }
        if !finished.is_empty() {
            remove_finished_from_active(&mut self.active, &finished);
        }
    }

    /// The pre-refactor per-tick interference computation, kept
    /// verbatim for the reference stepper: allocates the slowdown
    /// vector fresh and, per node, rescans every job's placement
    /// (recounting its node spread each time) — O(nodes · jobs ·
    /// nodes). Produces exactly the same values as
    /// [`Self::compute_interference`].
    fn interference_slowdowns_reference(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.jobs.len()];
        let factor = self.config.interference_slowdown;
        if factor <= 0.0 {
            return out;
        }
        let n = self.spec.num_nodes();
        for node in 0..n {
            let mut distributed = Vec::new();
            for (i, job) in self.jobs.iter().enumerate() {
                if job.is_finished() || node >= job.placement.len() {
                    continue;
                }
                let nodes_used = job.placement.iter().filter(|&&g| g > 0).count();
                if job.placement[node] > 0 && nodes_used > 1 {
                    distributed.push(i);
                }
            }
            if distributed.len() > 1 {
                for i in distributed {
                    out[i] = factor;
                }
            }
        }
        out
    }

    /// Moves due arrivals into the active job set.
    fn spawn_arrivals(&mut self, now: f64) {
        while let Some((spec, _)) = self.arrivals.last() {
            if spec.submit_time <= now {
                let (spec, user) = self.arrivals.pop().expect("checked non-empty");
                self.active.push(self.jobs.len());
                self.interference.push_job(); // Spawns with no placement.
                self.slowdown.push(0.0);
                let mut job = SimJob::new(spec, user, self.spec.num_nodes());
                if self.recorder.is_enabled() {
                    // The job's lifecycle emits its own transitions
                    // from here on; the arrival instant carries the
                    // submit time, not the macro-step boundary.
                    let id = u64::from(job.spec.id.0);
                    job.lifecycle.attach_telemetry(id, self.recorder.clone());
                    self.recorder.timeline(
                        "lifecycle",
                        "arrival",
                        job.spec.submit_time,
                        id,
                        &[],
                        &[],
                    );
                }
                self.jobs.push(job);
            } else {
                break;
            }
        }
    }

    /// Wakes jobs whose restart delay elapsed.
    fn wake_restarts(&mut self, now: f64) {
        for &i in &self.active {
            self.jobs[i].lifecycle.wake(now);
        }
    }

    /// Agent reporting interval: refresh gradient statistics, refit
    /// θsys when the profile gained information, and re-tune batch
    /// sizes for batch-adaptive policies.
    ///
    /// Runs as a deterministic two-phase round; rounds where the
    /// trigger fires for at least one job (i.e. phase 2 performs real
    /// θsys fits) are timed under an `engine/report_round` span —
    /// emitting the span unconditionally would cost one event per
    /// round (tens of thousands per simulated week) and blow the
    /// recorder's ≤ 5% overhead budget for telemetry-heavy runs, while
    /// no-refit rounds contribute negligibly to the phase anyway.
    ///
    /// 1. *Prepare* (serial, ascending job order): draw the per-job
    ///    φ-noise eps — the RNG stream is identical to the sequential
    ///    path — and evaluate the refit trigger against the profiler
    ///    counts (which the round itself never changes).
    /// 2. *Plan* (parallelizable, `engine_threads`): each job's refit
    ///    and batch-size tune run as a pure
    ///    [`PolluxAgent::plan_report_recorded`] against the frozen
    ///    agent — the expensive θsys fit dominates this phase.
    /// 3. *Commit* (serial, ascending job order): apply each plan's
    ///    `(FitReport, batch_size)`, update the refit bookkeeping, and
    ///    (for non-adaptive policies) consult the policy's batch
    ///    override — policies are never touched off-thread.
    fn report_and_tune(&mut self, _now: f64) {
        let policy = &self.policy;
        let adapt = policy.adapts_batch_size();
        let config = self.config;
        let threads = config.engine_threads.max(1);
        let recorder = &self.recorder;
        let rng = &mut self.rng;
        let jobs = &mut self.jobs;

        // Phase 1: serial RNG draws and trigger evaluation.
        let mut preps: Vec<ReportPrep> = Vec::new();
        for &i in &self.active {
            let job = &jobs[i];
            if !job.is_running() {
                continue;
            }
            // Noisy measurement of the true noise scale, fed to the
            // agent in (variance, |grad|²) form.
            let eps: f64 = rng.gen_range(-config.phi_noise..=config.phi_noise);
            let phi_obs = (job.true_phi() * (1.0 + eps)).max(0.0);
            let stats = GradientStats::new(phi_obs / job.profile.m0 as f64, 1.0);

            // Refit only when the profiler actually learned something
            // substantial, keeping the simulation fast without changing
            // fidelity: between refits the fitted θsys is simply
            // unchanged, which matches a real PolluxAgent whose fit has
            // converged. Batch-size re-tuning adds a new configuration
            // almost every report, so config-triggered refits back off
            // geometrically after the exploration phase.
            let configs = job.agent.profiler().num_configurations();
            let samples = job.agent.profiler().num_samples();
            let config_trigger = configs > job.last_fit_configs
                && (job.last_fit_configs < 8 || configs >= 2 * job.last_fit_configs);
            let sample_trigger = samples >= 4 * job.last_fit_samples.max(1);
            let refit = configs > 0 && (config_trigger || sample_trigger);
            preps.push(ReportPrep {
                idx: i,
                stats,
                refit,
                configs,
                samples,
                tune_shape: if adapt { job.shape() } else { None },
            });
        }

        // Phase 2: pure per-job plans over immutable agents. Inline
        // (no spawns) when `engine_threads <= 1`. Only rounds doing
        // actual fit work are worth a span event (see the doc above).
        let _span = preps
            .iter()
            .any(|p| p.refit)
            .then(|| self.recorder.span("engine", "report_round"));
        let plans: Vec<ReportPlan> = {
            let jobs_ref: &[SimJob] = jobs;
            let preps_ref: &[ReportPrep] = &preps;
            parallel_map(preps_ref.len(), threads, |k| {
                let p = &preps_ref[k];
                jobs_ref[p.idx]
                    .agent
                    .plan_report_recorded(recorder, p.stats, p.refit, p.tune_shape)
            })
        };
        let refits = preps.iter().filter(|p| p.refit).count() as u64;
        if refits > 0 {
            self.telem.refits_parallel.add(refits);
        }

        // Phase 3: serial commit in job order.
        for (p, plan) in preps.iter().zip(&plans) {
            let job = &mut jobs[p.idx];
            if job.agent.commit_report(plan) {
                job.last_fit_configs = p.configs;
                job.last_fit_samples = p.samples;
            }

            if adapt {
                if let Some(d) = plan.tuning {
                    job.batch_size = d.batch_size;
                }
            } else {
                let chosen = policy.choose_batch_size(&job.policy_view());
                if let Some(m) = chosen {
                    if let Some(shape) = job.shape() {
                        if let Some((lo, hi)) = job.profile.limits.range(shape) {
                            job.batch_size = m.clamp(lo, hi);
                        }
                    }
                }
            }
        }
    }

    /// Scheduling interval: one round of the shared control-plane
    /// pipeline. The engine builds views over the active jobs, lets
    /// the [`RoundPlanner`] invoke the policy and diff placements,
    /// then applies each [`Reallocation`] to its job store. The
    /// `PolicyJobView` vector is recycled across intervals (and across
    /// the `desired_nodes` / `plan` calls when no resize happens)
    /// instead of being reallocated and rebuilt per call.
    fn reschedule(&mut self, now: f64) {
        let _span = self.recorder.span("engine", "reschedule");
        // Auto-scaling phase.
        let mut views = take_views(&mut self.view_buf);
        views.extend(self.active.iter().map(|&i| self.jobs[i].policy_view()));
        let desired =
            self.planner
                .desired_nodes(&mut self.policy, now, &views, &self.spec, &mut self.rng);
        if let Some(nodes) = desired {
            // Resizing mutates placements, so the views are rebuilt.
            store_views(&mut self.view_buf, views);
            self.resize_cluster(nodes.max(1), now);
            views = take_views(&mut self.view_buf);
            views.extend(self.active.iter().map(|&i| self.jobs[i].policy_view()));
        }
        let outcome = self
            .planner
            .plan(&mut self.policy, now, &views, &self.spec, &mut self.rng)
            .expect("active jobs have unique ids");
        store_views(&mut self.view_buf, views);
        if let Some(stats) = outcome.stats {
            self.sched_stats.push(stats);
        }
        for r in outcome.reallocations {
            let i = self.active[r.row];
            self.apply_reallocation(i, r, now);
        }
        // Round decision audit: the policy builds it only while a
        // recorder is attached; the engine owns the clock and the
        // post-round node occupancies, so it stamps both here. The
        // audit is observational — nothing below feeds back into
        // scheduling or the digested SimResult.
        if self.recorder.is_enabled() {
            if let Some(mut explain) = self.policy.take_round_explain() {
                explain.time = now;
                for (k, je) in explain.jobs.iter_mut().enumerate() {
                    let i = self.active[k];
                    debug_assert_eq!(
                        je.job,
                        u64::from(self.jobs[i].spec.id.0),
                        "explain rows follow view order"
                    );
                    je.co_residents = self
                        .interference
                        .co_residents(i)
                        .into_iter()
                        .map(|idx| u64::from(self.jobs[idx as usize].spec.id.0))
                        .collect();
                }
                self.recorder.round_explain(explain);
            }
        }
    }

    /// Applies one planned reallocation: the placement row itself, the
    /// engine-owned consequences (agent allocation note, batch-size
    /// clamp), the lifecycle transition, and the timeline event.
    fn apply_reallocation(&mut self, i: usize, r: Reallocation, now: f64) {
        // Index delta from the authoritative old row, before it is
        // overwritten.
        self.interference.apply(i, &self.jobs[i].placement, &r.new);
        let job = &mut self.jobs[i];
        debug_assert_eq!(job.spec.id, r.job, "view order matches active order");
        job.edit_placement(|p| *p = r.new);
        let event_kind;
        let event_gpus;
        if let Some(shape) = job.shape() {
            job.agent.note_allocation(shape);

            // Clamp the batch size into the feasible range for the
            // new placement (a batch tuned for many GPUs may not
            // fit on few).
            if let Some((lo, hi)) = job.profile.limits.range(shape) {
                job.batch_size = job.batch_size.clamp(lo, hi);
            }

            job.lifecycle
                .grant(r.triggers_restart, now, self.config.restart_delay);
            if r.triggers_restart {
                self.restarts_total += 1;
                event_kind = EventKind::Restarted;
            } else {
                event_kind = EventKind::Started;
            }
            event_gpus = shape.gpus;
        } else {
            // Preempted: progress is checkpointed, the job waits. The
            // planner only emits zero-GPU decisions for placed jobs.
            job.lifecycle.preempt(now);
            event_kind = EventKind::Preempted;
            event_gpus = 0;
        }
        self.events.push(SchedulingEvent {
            time: now,
            job: r.job,
            kind: event_kind,
            gpus: event_gpus,
        });
    }

    /// Resizes the cluster to `nodes` homogeneous nodes, preempting
    /// jobs that held GPUs on removed nodes.
    fn resize_cluster(&mut self, nodes: u32, now: f64) {
        let old_n = self.spec.num_nodes();
        let new_n = nodes as usize;
        if new_n == old_n {
            return;
        }
        let gpus_per_node = self.spec.gpus_on(NodeId(0));
        self.spec =
            ClusterSpec::homogeneous(nodes, gpus_per_node).expect("nodes >= 1 enforced by caller");
        for job in &mut self.jobs {
            // The whole job is preempted when it loses any GPU
            // (partial placements would change its world silently).
            let loses_gpus = !job.is_finished() && job.placement.iter().skip(new_n).any(|&g| g > 0);
            job.edit_placement(|p| {
                p.resize(new_n, 0);
                if loses_gpus {
                    p.fill(0);
                }
            });
            if loses_gpus {
                job.lifecycle.preempt(now);
            }
        }
        // Placements were edited wholesale, bypassing the index's
        // delta updates: rebuild it from the rows now in effect.
        self.interference
            .rebuild(new_n, self.jobs.iter().map(|j| j.placement.as_slice()));
        if self.config.nodes_per_rack > 0 {
            if let Some(topo) = Topology::grouped(nodes, self.config.nodes_per_rack) {
                self.policy.configure_topology(Some(&topo));
            }
        }
    }

    /// Refreshes the per-job interference buffer: when two or more
    /// *distributed* jobs occupy one node, all of them are slowed
    /// (Sec. 4.2.1 / Fig 9). Served by the incremental
    /// [`InterferenceIndex`] — O(nodes + occupancy) per macro-step
    /// instead of rescanning every active placement — and cross-checked
    /// against the full rescan in debug builds. The buffer is sized by
    /// `spawn_arrivals`; only the rows marked last time are reset.
    fn compute_interference(&mut self) {
        self.telem.interference_recomputes.add(1);
        for &j in &self.slowed {
            self.slowdown[j as usize] = 0.0;
        }
        self.slowed.clear();
        let factor = self.config.interference_slowdown;
        if factor <= 0.0 {
            return;
        }
        self.interference
            .mark_slowdowns(factor, &mut self.slowdown, &mut self.slowed);
        debug_assert_eq!(
            self.slowdown,
            self.interference_slowdowns_reference(),
            "incremental interference index diverged from the full rescan"
        );
    }

    /// Records one cluster-state sample.
    fn sample(&mut self, now: f64) {
        let mut used = 0u32;
        let mut running = 0u32;
        let mut pending = 0u32;
        let mut eff_sum = 0.0;
        let mut tput = 0.0;
        let mut goodput = 0.0;
        for &i in &self.active {
            let job = &self.jobs[i];
            match job.state() {
                JobState::Running | JobState::Restarting { .. } => {
                    used += job.gpus();
                }
                _ => {}
            }
            match job.state() {
                JobState::Running => {
                    running += 1;
                    if let Some(shape) = job.shape() {
                        let e = job.true_efficiency(job.batch_size);
                        let t = job.true_throughput(shape, job.batch_size);
                        eff_sum += e;
                        tput += t;
                        goodput += t * e;
                    }
                }
                JobState::Pending => pending += 1,
                _ => {}
            }
        }
        if self.config.record_job_series {
            for &i in &self.active {
                let job = &self.jobs[i];
                self.job_series.push(JobSample {
                    time: now,
                    job: job.spec.id,
                    gpus: job.gpus(),
                    batch_size: job.batch_size,
                    progress: job.progress_fraction(),
                });
            }
        }
        let mean_efficiency = if running > 0 {
            eff_sum / running as f64
        } else {
            0.0
        };
        self.series.push(ClusterSample {
            time: now,
            nodes: self.spec.num_nodes() as u32,
            total_gpus: self.spec.total_gpus(),
            used_gpus: used,
            running_jobs: running,
            pending_jobs: pending,
            mean_efficiency,
            total_throughput: tput,
            total_goodput: goodput,
        });
        // The per-interval cluster time-series: values copied from the
        // sample just recorded, never computed differently for
        // telemetry (determinism contract).
        self.recorder.point(
            "engine",
            "cluster_sample",
            now,
            &[
                ("goodput", goodput),
                ("throughput", tput),
                ("mean_efficiency", mean_efficiency),
                ("used_gpus", used as f64),
                ("total_gpus", self.spec.total_gpus() as f64),
                ("running_jobs", running as f64),
                ("pending_jobs", pending as f64),
                ("restarts", self.restarts_total as f64),
            ],
        );
    }

    /// Builds the final result. Flushes the recorder first so counter
    /// and histogram snapshots land in the capture.
    fn finalize(self, end_time: f64) -> SimResult {
        self.recorder.flush();
        let records = self
            .jobs
            .iter()
            .map(|job| JobRecord {
                id: job.spec.id,
                kind: job.spec.kind,
                submit_time: job.spec.submit_time,
                start_time: job.start_time(),
                finish_time: job.lifecycle.finish_time(),
                gputime: job.gputime(),
                num_restarts: job.num_restarts(),
                examples_processed: job.examples_processed,
                useful_examples: job.progress,
            })
            .collect();
        SimResult {
            policy: self.policy.name().to_string(),
            records,
            series: self.series,
            events: self.events,
            job_series: self.job_series,
            end_time,
            node_seconds: self.node_seconds,
            sched_stats: self.sched_stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pollux_cluster::{AllocationMatrix, JobId};
    use pollux_workload::{ModelKind, TraceConfig, TraceGenerator};

    /// A trivial policy: every active job gets `gpus` GPUs packed onto
    /// the fewest nodes, first-come-first-served.
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
                // Keep an existing placement untouched.
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
                    // Could not fully place: back out.
                    for (n, f) in free.iter_mut().enumerate() {
                        *f += m.get(j, n);
                        m.set(j, n, 0);
                    }
                }
            }
            m
        }
    }

    fn small_workload(n: usize) -> Vec<Submission> {
        let trace = TraceGenerator::new(TraceConfig {
            num_jobs: 40,
            seed: 3,
            ..Default::default()
        })
        .unwrap()
        .generate();
        trace
            .into_iter()
            .filter(|j| j.kind == ModelKind::ResNet18Cifar10 || j.kind == ModelKind::NeuMFMovieLens)
            .take(n)
            .enumerate()
            .map(|(i, mut spec)| {
                spec.id = JobId(i as u32);
                spec.submit_time = i as f64 * 30.0;
                let user = spec.tuned;
                (spec, user)
            })
            .collect()
    }

    fn quick_config() -> SimConfig {
        SimConfig {
            tick_seconds: 1.0,
            max_sim_time: 12.0 * 3600.0,
            ..Default::default()
        }
    }

    #[test]
    fn rejects_empty_workload() {
        let spec = ClusterSpec::homogeneous(2, 4).unwrap();
        assert!(Simulation::new(quick_config(), spec, FcfsPacked { gpus: 1 }, vec![]).is_none());
    }

    #[test]
    fn rejects_non_finite_submit_times() {
        let spec = ClusterSpec::homogeneous(2, 4).unwrap();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut wl = small_workload(3);
            wl[1].0.submit_time = bad;
            assert!(
                Simulation::new(quick_config(), spec.clone(), FcfsPacked { gpus: 1 }, wl).is_none(),
                "submit_time {bad} must be rejected"
            );
        }
        // Negative-but-finite submit times stay legal (spawn at t=0).
        let mut wl = small_workload(3);
        wl[1].0.submit_time = -5.0;
        assert!(Simulation::new(quick_config(), spec, FcfsPacked { gpus: 1 }, wl).is_some());
    }

    #[test]
    fn tick_search_is_exact() {
        for (time, dt, lo, want) in [
            (0.0, 1.0, 1, 1),
            (29.5, 1.0, 1, 30),
            (30.0, 1.0, 1, 30),
            (30.0, 1.0, 31, 31),
            (-4.0, 1.0, 1, 1),
            (0.3, 0.1, 1, 3),
            (1.0e30, 1.0, 1, u64::MAX),
        ] {
            assert_eq!(
                first_tick_at_or_after(time, dt, lo),
                want,
                "time {time} dt {dt} lo {lo}"
            );
        }
        // Exactness against accumulated float error: the first tick at
        // or after k·dt must be exactly k for awkward dt values.
        let dt = 0.1;
        for k in [3u64, 7, 10, 1000, 999_983] {
            let t = first_tick_at_or_after(k as f64 * dt, dt, 1);
            assert_eq!(t, t.max(1));
            assert!((t as f64) * dt >= k as f64 * dt);
            assert!(t == 0 || ((t - 1) as f64) * dt < k as f64 * dt);
        }
    }

    #[test]
    fn all_small_jobs_finish() {
        let spec = ClusterSpec::homogeneous(4, 4).unwrap();
        let wl = small_workload(6);
        assert_eq!(wl.len(), 6);
        let sim = Simulation::new(quick_config(), spec, FcfsPacked { gpus: 2 }, wl).unwrap();
        let res = sim.run();
        assert_eq!(res.records.len(), 6);
        assert_eq!(res.unfinished(), 0, "records: {:#?}", res.records);
        for r in &res.records {
            let jct = r.jct().unwrap();
            assert!(jct > 0.0 && jct < 12.0 * 3600.0);
            assert!(r.gputime > 0.0);
            assert!(r.examples_processed >= r.useful_examples);
        }
        assert!(res.avg_jct().unwrap() > 0.0);
        assert!(res.makespan() > 0.0);
        assert!(res.node_seconds > 0.0);
    }

    #[test]
    fn no_oversubscription_in_series() {
        let spec = ClusterSpec::homogeneous(2, 4).unwrap();
        let wl = small_workload(8);
        let sim = Simulation::new(quick_config(), spec, FcfsPacked { gpus: 2 }, wl).unwrap();
        let res = sim.run();
        for s in &res.series {
            assert!(s.used_gpus <= s.total_gpus, "{s:?}");
            assert!(s.mean_efficiency >= 0.0 && s.mean_efficiency <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn jobs_queue_when_cluster_full() {
        // 1 node x 4 GPUs, 4 jobs needing 4 GPUs each: they must run
        // mostly sequentially, so later JCTs exceed earlier ones.
        let spec = ClusterSpec::homogeneous(1, 4).unwrap();
        let mut wl = small_workload(4);
        for (s, _) in wl.iter_mut() {
            s.submit_time = 0.0;
        }
        let sim = Simulation::new(quick_config(), spec, FcfsPacked { gpus: 4 }, wl).unwrap();
        let res = sim.run();
        assert_eq!(res.unfinished(), 0);
        let mut jcts: Vec<f64> = res.records.iter().map(|r| r.jct().unwrap()).collect();
        let max = jcts.iter().cloned().fold(0.0, f64::max);
        jcts.sort_by(|a, b| a.partial_cmp(b).unwrap());
        // The last job's JCT is at least ~2x the first one's.
        assert!(max > 2.0 * jcts[0], "jcts: {jcts:?}");
    }

    #[test]
    fn job_series_recording() {
        let spec = ClusterSpec::homogeneous(2, 4).unwrap();
        let wl = small_workload(3);
        let mut cfg = quick_config();
        cfg.record_job_series = true;
        let res = Simulation::new(cfg, spec, FcfsPacked { gpus: 2 }, wl)
            .unwrap()
            .run();
        assert!(!res.job_series.is_empty());
        for r in &res.records {
            let series = res.job_series_of(r.id);
            assert!(!series.is_empty(), "no samples for {}", r.id);
            // Progress is monotone and ends near 1 for finished jobs.
            for w in series.windows(2) {
                assert!(w[0].time <= w[1].time);
                assert!(w[0].progress <= w[1].progress + 1e-12);
            }
        }
        // Off by default: no samples.
        let res2 = Simulation::new(
            quick_config(),
            ClusterSpec::homogeneous(2, 4).unwrap(),
            FcfsPacked { gpus: 2 },
            small_workload(3),
        )
        .unwrap()
        .run();
        assert!(res2.job_series.is_empty());
    }

    #[test]
    fn agents_learn_during_simulation() {
        let spec = ClusterSpec::homogeneous(2, 4).unwrap();
        let wl = small_workload(2);
        let sim = Simulation::new(quick_config(), spec, FcfsPacked { gpus: 2 }, wl).unwrap();
        // Drive manually to inspect the job state: run and check records
        // got gputime; agent internals are covered by unit tests.
        let res = sim.run();
        assert!(res.records.iter().all(|r| r.gputime > 0.0));
        // Efficiency below 1 because tuned batches exceed m0.
        let eff = res.avg_cluster_efficiency().unwrap();
        assert!(eff > 0.3 && eff <= 1.0, "eff = {eff}");
    }

    /// Asserts that job `i`'s cached shape and memoised iteration time
    /// equal a fresh `SimJob::shape()` / `true_t_iter` (bitwise).
    fn assert_cache_coherent<P: SchedulingPolicy>(sim: &mut Simulation<P>, i: usize, step: &str) {
        let job = &mut sim.jobs[i];
        assert_eq!(job.placed_shape(), job.shape(), "{step}: cached shape");
        if let Some(shape) = job.shape() {
            let fresh = job.true_t_iter(shape, job.batch_size);
            assert_eq!(
                job.memo_t_iter(shape).to_bits(),
                fresh.to_bits(),
                "{step}: memoised t_iter"
            );
        }
        assert!(job.placement_cache_is_coherent(), "{step}");
    }

    /// Drives jobs through every placement writer — reallocation,
    /// restart, batch re-tune, preemption, an autoscaling shrink that
    /// drops one job's nodes and keeps another's, and finish — and
    /// checks the per-job cache after each step.
    #[test]
    fn placement_cache_stays_coherent_through_every_writer() {
        let spec = ClusterSpec::homogeneous(4, 4).unwrap();
        let mut sim = Simulation::new(
            quick_config(),
            spec,
            FcfsPacked { gpus: 2 },
            small_workload(2),
        )
        .unwrap();
        sim.spawn_arrivals(60.0);
        assert_eq!(sim.active, vec![0, 1]);
        for i in 0..2 {
            assert_cache_coherent(&mut sim, i, "spawn");
        }
        let realloc = |sim: &mut Simulation<FcfsPacked>, i: usize, new: Vec<u32>, restart| {
            let r = Reallocation {
                job: sim.jobs[i].spec.id,
                row: i,
                old: sim.jobs[i].placement.clone(),
                new,
                triggers_restart: restart,
            };
            sim.apply_reallocation(i, r, 60.0);
        };

        realloc(&mut sim, 0, vec![1, 1, 0, 0], false);
        assert_cache_coherent(&mut sim, 0, "start on two nodes");
        realloc(&mut sim, 1, vec![2, 0, 0, 0], false);
        assert_cache_coherent(&mut sim, 1, "start on one node");

        realloc(&mut sim, 0, vec![0, 0, 2, 2], true);
        assert!(matches!(sim.jobs[0].state(), JobState::Restarting { .. }));
        assert_cache_coherent(&mut sim, 0, "restart on new nodes");

        let m0 = sim.jobs[0].profile.m0;
        sim.jobs[0].batch_size = 2 * m0;
        assert_cache_coherent(&mut sim, 0, "batch re-tune");

        realloc(&mut sim, 0, vec![0; 4], false);
        assert_eq!(sim.jobs[0].state(), JobState::Pending);
        assert_cache_coherent(&mut sim, 0, "preemption");

        realloc(&mut sim, 0, vec![0, 0, 1, 3], false);
        assert_cache_coherent(&mut sim, 0, "re-grant");
        sim.resize_cluster(2, 120.0);
        assert_eq!(sim.jobs[0].state(), JobState::Pending);
        assert_eq!(sim.jobs[0].placement, vec![0, 0]);
        assert_cache_coherent(&mut sim, 0, "shrink drops its nodes");
        assert_eq!(sim.jobs[1].placement, vec![2, 0]);
        assert_cache_coherent(&mut sim, 1, "shrink keeps its nodes");

        // Finish job 1 inside a chunk: its row is zeroed by the commit.
        let work = sim.jobs[1].spec.work;
        sim.jobs[1].progress = work * (1.0 - 1e-12);
        sim.advance_chunk(120, 180, 1.0);
        assert!(sim.jobs[1].is_finished());
        assert_cache_coherent(&mut sim, 1, "finish");
    }

    /// Policy that re-places every job on alternating nodes each
    /// interval, to exercise restart accounting.
    struct Shuffler;
    impl SchedulingPolicy for Shuffler {
        fn name(&self) -> &'static str {
            "shuffler"
        }
        fn schedule(
            &mut self,
            now: f64,
            jobs: &[PolicyJobView<'_>],
            spec: &ClusterSpec,
            _rng: &mut StdRng,
        ) -> AllocationMatrix {
            let mut m = AllocationMatrix::zeros(jobs.len(), spec.num_nodes());
            let phase = ((now / 60.0) as usize) % spec.num_nodes();
            for j in 0..jobs.len().min(1) {
                m.set(j, phase, 1);
            }
            m
        }
    }

    #[test]
    fn restarts_are_counted_and_slow_jobs_down() {
        let spec = ClusterSpec::homogeneous(2, 4).unwrap();
        let wl = small_workload(1);
        let sim = Simulation::new(quick_config(), spec, Shuffler, wl.clone()).unwrap();
        let res = sim.run();
        let r = &res.records[0];
        assert!(r.num_restarts > 2, "restarts = {}", r.num_restarts);

        // The same job without shuffling finishes faster.
        let sim2 =
            Simulation::new(quick_config(), spec_clone(), FcfsPacked { gpus: 1 }, wl).unwrap();
        let res2 = sim2.run();
        assert!(
            res2.records[0].jct().unwrap() < r.jct().unwrap(),
            "stable {:?} vs shuffled {:?}",
            res2.records[0].jct(),
            r.jct()
        );

        fn spec_clone() -> ClusterSpec {
            ClusterSpec::homogeneous(2, 4).unwrap()
        }
    }

    /// Policy pinning two distributed jobs onto overlapping nodes, to
    /// exercise interference injection.
    struct Overlapper;
    impl SchedulingPolicy for Overlapper {
        fn name(&self) -> &'static str {
            "overlapper"
        }
        fn schedule(
            &mut self,
            _now: f64,
            jobs: &[PolicyJobView<'_>],
            spec: &ClusterSpec,
            _rng: &mut StdRng,
        ) -> AllocationMatrix {
            let mut m = AllocationMatrix::zeros(jobs.len(), spec.num_nodes());
            for j in 0..jobs.len().min(2) {
                // Both jobs span nodes 0 and 1.
                m.set(j, 0, 1);
                m.set(j, 1, 1);
            }
            m
        }
    }

    #[test]
    fn interference_slows_overlapping_distributed_jobs() {
        let wl = small_workload(2);
        let mut cfg = quick_config();
        cfg.interference_slowdown = 0.5;
        let spec = ClusterSpec::homogeneous(2, 4).unwrap();
        let slow = Simulation::new(cfg, spec.clone(), Overlapper, wl.clone())
            .unwrap()
            .run();
        let mut cfg2 = quick_config();
        cfg2.interference_slowdown = 0.0;
        let fast = Simulation::new(cfg2, spec, Overlapper, wl).unwrap().run();
        let s = slow.avg_jct().unwrap();
        let f = fast.avg_jct().unwrap();
        // A 50% slowdown must cost well over 20% end-to-end (it is
        // diluted by solo-running and restart phases).
        assert!(s > 1.2 * f, "interfered {s} vs clean {f}");
    }
}
