//! Property tests for the staged-scheduler composition contract.
//!
//! Whatever stages a `StagedScheduler` composes, three invariants must
//! hold (DESIGN.md §10):
//!
//! - **Feasibility**: the composed matrix fits the cluster spec, so
//!   the round planner's defensive clamp never fires. Placement owns
//!   this; the tests drive every zoo policy over random jobs, random
//!   cluster shapes, and random pre-existing (collectively feasible)
//!   placements.
//! - **Preemption scope**: a preemption stage only yields *running*
//!   rows, ascending and at most once — the composer indexes `held`
//!   by them. A no-preemption composition keeps every running job's
//!   placement byte-identical on a static cluster.
//! - **Determinism**: the full simulated trajectory is a pure function
//!   of the seed, never of `sched_threads` / `engine_threads` — the
//!   admission order feeds placement directly, so one out-of-order
//!   admit would flip the serialized `SimResult`.
//! - **Sparse = dense**: a round planned through the staged sparse
//!   path (`schedule_sparse`) has the same outcome and leaves the RNG
//!   in the same state as one planned through the dense matrix, and
//!   the sparse path declines when a view is not cluster-width.

use pollux_baselines::{
    fifo_backfill, gandiva_packing, optimus, or_etal, srsf, srtf, tiresias, TiresiasConfig,
};
use pollux_cluster::{AllocationMatrix, ClusterSpec, JobId};
use pollux_control::{pack_consolidated, RoundPlanner};
use pollux_core::{run_trace, ConfigChoice};
use pollux_models::BatchSizeLimits;
use pollux_simulator::{
    NoPreemption, PolicyJobView, PreemptAll, PreemptionPolicy, SchedulingPolicy, SimConfig,
    StagedScheduler,
};
use pollux_workload::{JobSpec, ModelKind, TraceConfig, TraceGenerator, UserConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Raw per-job generator output: `(requested gpus, submit time,
/// wants-to-be-running flag, attained gpu-time)`.
type RawJob = (u32, f64, u32, f64);

fn raw_jobs() -> impl Strategy<Value = Vec<RawJob>> {
    proptest::collection::vec(
        (1u32..=6, 0.0..10_000.0f64, 0u32..2, 0.0..20_000.0f64),
        1..12,
    )
}

/// Builds collectively-feasible placements for the jobs flagged
/// running: each packs consolidated into what capacity is left, and
/// jobs that no longer fit fall back to pending. Returns one
/// placement row per job (all-zero = pending).
fn seed_placements(raw: &[RawJob], spec: &ClusterSpec) -> Vec<Vec<u32>> {
    let mut free: Vec<u32> = spec.iter().map(|(_, s)| s.gpus).collect();
    raw.iter()
        .map(|&(gpus, _, running, _)| {
            if running == 0 {
                return vec![0u32; free.len()];
            }
            // `pack_consolidated` deducts granted GPUs in place, so
            // later jobs see the shrunk capacities.
            pack_consolidated(gpus, &mut free).unwrap_or_else(|| vec![0u32; free.len()])
        })
        .collect()
}

fn views<'a>(raw: &[RawJob], placements: &'a [Vec<u32>]) -> Vec<PolicyJobView<'a>> {
    raw.iter()
        .zip(placements)
        .enumerate()
        .map(
            |(i, (&(gpus, submit, _, gputime), placement))| PolicyJobView {
                id: JobId(i as u32),
                user: UserConfig {
                    gpus,
                    batch_size: 128,
                },
                profile: None,
                limits: BatchSizeLimits::new(128, 1024, 512).unwrap(),
                report: None,
                gputime,
                submit_time: submit,
                current_placement: placement,
                started: placement.iter().any(|&g| g > 0),
                batch_size: 128,
                remaining_work: 1e6 * (1.0 + gputime),
            },
        )
        .collect()
}

/// Every staged policy in the zoo, freshly built.
fn zoo() -> Vec<StagedScheduler> {
    vec![
        tiresias(TiresiasConfig::default()),
        optimus(4),
        or_etal(Default::default()),
        srtf(),
        srsf(),
        fifo_backfill(),
        gandiva_packing(),
    ]
}

/// Forwards `schedule` (and the name) only, so the planner never
/// gets a sparse answer: the dense oracle for the staged sparse round.
struct DenseOnly(StagedScheduler);

impl SchedulingPolicy for DenseOnly {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn schedule(
        &mut self,
        now: f64,
        jobs: &[PolicyJobView<'_>],
        spec: &ClusterSpec,
        rng: &mut StdRng,
    ) -> AllocationMatrix {
        self.0.schedule(now, jobs, spec, rng)
    }
}

/// Plans one round of every zoo policy twice — once as is, once
/// through [`DenseOnly`] — from the same seed, and requires the same
/// outcome, the same RNG state afterwards, and the same count of
/// materialized rows.
fn assert_sparse_matches_dense(
    jobs: &[PolicyJobView<'_>],
    spec: &ClusterSpec,
    now: f64,
    seed: u64,
) {
    for (mut staged, oracle) in zoo().into_iter().zip(zoo()) {
        let name = staged.name();
        let mut oracle = DenseOnly(oracle);
        let (mut rng_s, mut rng_d) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
        let (mut planner_s, mut planner_d) = (RoundPlanner::new(), RoundPlanner::new());
        let sparse = planner_s.plan(&mut staged, now, jobs, spec, &mut rng_s);
        let dense = planner_d.plan(&mut oracle, now, jobs, spec, &mut rng_d);
        assert_eq!(sparse, dense, "{name}: outcomes differ");
        assert_eq!(rng_s, rng_d, "{name}: RNG states differ");
        assert_eq!(
            planner_s.rows_materialized(),
            planner_d.rows_materialized(),
            "{name}: materialized rows differ"
        );
    }
}

proptest! {
    /// The staged sparse round agrees with the dense matrix round for
    /// every zoo policy, on random jobs, clusters, seeded placements,
    /// and restart flags — and it really is the sparse path that runs
    /// when every view is cluster-width.
    #[test]
    fn sparse_and_dense_rounds_agree(
        raw in raw_jobs(),
        nodes in 1u32..=6,
        gpn in 1u32..=8,
        seed in 0u64..1024,
        now in 0.0f64..100_000.0,
        started in 0u32..65_536,
    ) {
        let spec = ClusterSpec::homogeneous(nodes, gpn).unwrap();
        let placements = seed_placements(&raw, &spec);
        let mut jobs = views(&raw, &placements);
        // Some pending jobs were preempted after starting, so a new
        // grant for them pays a restart.
        for (i, job) in jobs.iter_mut().enumerate() {
            job.started |= started >> (i % 16) & 1 == 1;
        }
        for mut policy in zoo() {
            let mut rng = StdRng::seed_from_u64(seed);
            prop_assert!(
                policy.schedule_sparse(now, &jobs, &spec, &mut rng).is_some(),
                "{} declined a cluster-width round",
                policy.name()
            );
        }
        assert_sparse_matches_dense(&jobs, &spec, now, seed);
    }

    /// A view whose placement row is not cluster-width (a stale row
    /// around a resize) makes the sparse round decline without
    /// drawing, and the planner's dense fallback matches the oracle.
    #[test]
    fn width_mismatched_view_falls_back_to_dense(
        raw in raw_jobs(),
        nodes in 1u32..=6,
        gpn in 1u32..=8,
        seed in 0u64..1024,
        pick in 0usize..12,
        wider in 0u32..2,
    ) {
        let spec = ClusterSpec::homogeneous(nodes, gpn).unwrap();
        let mut placements = seed_placements(&raw, &spec);
        let k = pick % placements.len();
        if wider == 1 {
            placements[k].push(1);
        } else {
            placements[k].pop();
        }
        let jobs = views(&raw, &placements);
        for mut policy in zoo() {
            let mut rng = StdRng::seed_from_u64(seed);
            prop_assert!(
                policy.schedule_sparse(0.0, &jobs, &spec, &mut rng).is_none(),
                "{} answered sparsely over a width-mismatched view",
                policy.name()
            );
            prop_assert_eq!(rng, StdRng::seed_from_u64(seed), "declining drew from the RNG");
        }
        assert_sparse_matches_dense(&jobs, &spec, 0.0, seed);
    }

    /// The composed matrix always fits the spec — the planner clamp
    /// downstream is dead code for every zoo policy.
    #[test]
    fn composed_output_is_feasible(
        raw in raw_jobs(),
        nodes in 1u32..=6,
        gpn in 1u32..=8,
        seed in 0u64..1024,
    ) {
        let spec = ClusterSpec::homogeneous(nodes, gpn).unwrap();
        let placements = seed_placements(&raw, &spec);
        let jobs = views(&raw, &placements);
        for mut policy in zoo() {
            let mut rng = StdRng::seed_from_u64(seed);
            let m = policy.schedule(0.0, &jobs, &spec, &mut rng);
            prop_assert!(
                m.is_feasible(&spec),
                "{} produced an infeasible matrix on {nodes}x{gpn}: {m:?}",
                policy.name()
            );
            prop_assert_eq!(m.num_jobs(), jobs.len());
        }
    }

    /// Preemption stages only ever yield running rows, ascending and
    /// at most once (the composer's `held` bookkeeping indexes by
    /// them).
    #[test]
    fn preemption_yields_are_running_rows(
        raw in raw_jobs(),
        nodes in 1u32..=6,
        gpn in 1u32..=8,
    ) {
        let spec = ClusterSpec::homogeneous(nodes, gpn).unwrap();
        let placements = seed_placements(&raw, &spec);
        let jobs = views(&raw, &placements);
        let mut rng = StdRng::seed_from_u64(7);
        let victims = PreemptAll.yield_rows(0.0, &jobs, &spec, &mut rng);
        let running: Vec<usize> = (0..jobs.len()).filter(|&i| jobs[i].is_running()).collect();
        prop_assert_eq!(victims, running, "preempt-all yields exactly the running rows");
        let none = NoPreemption.yield_rows(0.0, &jobs, &spec, &mut rng);
        prop_assert!(none.is_empty(), "no-preemption must yield nothing");
    }

    /// A no-preemption composition on a static cluster keeps every
    /// running job's placement row byte-identical: preempted ⊆
    /// victims = ∅.
    #[test]
    fn no_preemption_never_disturbs_running_jobs(
        raw in raw_jobs(),
        nodes in 1u32..=6,
        gpn in 1u32..=8,
        seed in 0u64..1024,
    ) {
        let spec = ClusterSpec::homogeneous(nodes, gpn).unwrap();
        let placements = seed_placements(&raw, &spec);
        let jobs = views(&raw, &placements);
        let mut policy = fifo_backfill();
        let mut rng = StdRng::seed_from_u64(seed);
        let m = policy.schedule(0.0, &jobs, &spec, &mut rng);
        for (row, job) in jobs.iter().enumerate() {
            if job.is_running() {
                prop_assert_eq!(
                    m.row(row),
                    job.current_placement,
                    "running row {row} disturbed under no-preemption"
                );
            }
        }
    }
}

/// 16 staggered jobs for the cross-thread determinism runs (small
/// enough that 7 policies × 3 thread counts stay cheap).
fn churn_trace_16() -> Vec<JobSpec> {
    let trace = TraceGenerator::new(TraceConfig {
        num_jobs: 80,
        seed: 13,
        ..Default::default()
    })
    .unwrap()
    .generate();
    trace
        .into_iter()
        .filter(|j| j.kind == ModelKind::ResNet18Cifar10 || j.kind == ModelKind::NeuMFMovieLens)
        .take(16)
        .enumerate()
        .map(|(i, mut spec)| {
            spec.id = JobId(i as u32);
            spec.submit_time = i as f64 * 120.0;
            spec.work *= 0.05;
            spec
        })
        .collect()
}

/// FNV-1a 64-bit digest of the serialized result — tiny failure
/// output instead of two multi-megabyte JSON strings.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Runs every zoo policy at one thread count and digests each
/// trajectory.
fn run_all(threads: usize, trace: &[JobSpec], spec: &ClusterSpec) -> Vec<(String, u64)> {
    zoo()
        .into_iter()
        .map(|policy| {
            let sim = SimConfig {
                max_sim_time: 12.0 * 3600.0,
                interference_slowdown: 0.3,
                seed: 17,
                sched_threads: threads,
                engine_threads: threads,
                ..Default::default()
            };
            let name = policy.name().to_string();
            let res = run_trace(policy, trace, ConfigChoice::Tuned, spec.clone(), sim)
                .expect("valid simulation inputs");
            let bytes = serde_json::to_string(&res).expect("SimResult serializes");
            (name, fnv1a64(bytes.as_bytes()))
        })
        .collect()
}

/// The full simulated trajectory — admission order included — is
/// identical at 1, 2, and 4 worker threads for every zoo policy.
#[test]
fn staged_trajectories_are_thread_count_invariant() {
    let trace = churn_trace_16();
    let spec = ClusterSpec::homogeneous(8, 4).unwrap();
    let base = run_all(1, &trace, &spec);
    assert_eq!(base.len(), 7, "zoo shrank");
    for threads in [2usize, 4] {
        assert_eq!(
            base,
            run_all(threads, &trace, &spec),
            "some trajectory differs at {threads} threads"
        );
    }
}
