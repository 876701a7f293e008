//! Simulated job state.

use crate::policy::PolicyJobView;
use pollux_agent::PolluxAgent;
use pollux_models::{EfficiencyModel, PlacementShape};
use pollux_workload::{JobSpec, ModelProfile, UserConfig};

pub use pollux_control::{JobLifecycle, JobState};

/// One job inside the simulation: ground truth + the agent's noisy view.
///
/// Lifecycle state (pending/running/restarting/finished, restart and
/// GPU-time accounting) lives in the shared control-plane
/// [`JobLifecycle`] — the same state machine the live `ClusterService`
/// drives — while this struct adds the simulation-only ground truth:
/// the model profile, training progress, and the noisy-profiled agent.
#[derive(Debug, Clone)]
pub struct SimJob {
    /// The submission record (model, submit time, total work, user
    /// configurations).
    pub spec: JobSpec,
    /// The user configuration in effect for this run (tuned or
    /// realistic, chosen by the experiment).
    pub user: UserConfig,
    /// Ground-truth model profile. **Scheduler code must not read
    /// this**; it exists for the simulator to generate measurements.
    pub profile: ModelProfile,
    /// The job's `PolluxAgent` (profiles, fits, tunes).
    pub agent: PolluxAgent,
    /// Shared lifecycle state machine (state, start time, restarts,
    /// attained GPU-time).
    pub lifecycle: JobLifecycle,
    /// Current placement row (GPUs per node), cluster-width. The
    /// engine writes it only through `SimJob::edit_placement`, which
    /// keeps the cached shape below in step; code outside the engine
    /// that writes the field directly must not rely on that cache
    /// (and [`Self::shape`] never does).
    pub placement: Vec<u32>,
    /// Current total batch size.
    pub batch_size: u64,
    /// Accumulated useful work (examples at m0-efficiency).
    pub progress: f64,
    /// Accumulated raw examples processed (for throughput accounting).
    pub examples_processed: f64,
    /// Fit bookkeeping: configurations seen at the last refit.
    pub(crate) last_fit_configs: usize,
    /// Fit bookkeeping: samples seen at the last refit.
    pub(crate) last_fit_samples: u64,
    /// `placement`'s shape as of the last [`Self::edit_placement`]:
    /// the engine reads it every chunk instead of rescanning the
    /// cluster-wide row.
    placed_shape: Option<PlacementShape>,
    /// Single-entry memo of the true iteration time, keyed by the
    /// `(shape, batch)` it was computed for. Keyed rather than
    /// invalidated, so batch-size writes need no bookkeeping.
    t_iter_memo: Option<(PlacementShape, u64, f64)>,
}

impl SimJob {
    /// Creates a pending job from its submission spec and the chosen
    /// user configuration.
    pub fn new(spec: JobSpec, user: UserConfig, num_nodes: usize) -> Self {
        let profile = spec.kind.profile();
        let agent = PolluxAgent::new(profile.m0, profile.eta0, profile.limits)
            .expect("profile constants are valid");
        let batch_size = user.batch_size.max(profile.m0);
        Self {
            spec,
            user,
            profile,
            agent,
            lifecycle: JobLifecycle::new(),
            placement: vec![0; num_nodes],
            batch_size,
            progress: 0.0,
            examples_processed: 0.0,
            last_fit_configs: 0,
            last_fit_samples: 0,
            placed_shape: None,
            t_iter_memo: None,
        }
    }

    /// Current lifecycle state.
    pub fn state(&self) -> JobState {
        self.lifecycle.state()
    }

    /// Attained GPU-time in GPU-seconds.
    pub fn gputime(&self) -> f64 {
        self.lifecycle.gputime()
    }

    /// First time the job received GPUs.
    pub fn start_time(&self) -> Option<f64> {
        self.lifecycle.start_time()
    }

    /// Number of checkpoint-restarts suffered.
    pub fn num_restarts(&self) -> u32 {
        self.lifecycle.num_restarts()
    }

    /// Whether the job has finished.
    pub fn is_finished(&self) -> bool {
        self.lifecycle.is_finished()
    }

    /// Whether the job is actively making progress.
    pub fn is_running(&self) -> bool {
        self.lifecycle.is_running()
    }

    /// The read-only view of this job handed to scheduling policies.
    pub fn policy_view(&self) -> PolicyJobView<'_> {
        PolicyJobView {
            id: self.spec.id,
            user: self.user,
            profile: Some(&self.profile),
            limits: self.profile.limits,
            report: self.agent.report(),
            gputime: self.lifecycle.gputime(),
            submit_time: self.spec.submit_time,
            current_placement: &self.placement,
            started: self.lifecycle.has_started(),
            batch_size: self.batch_size,
            remaining_work: self.remaining_work(),
        }
    }

    /// The job's current placement shape, if it holds any GPUs.
    /// Always recomputed from the placement row (two scans), so it is
    /// correct however the row was written; the engine's chunk path
    /// reads a shape cached on the job instead.
    pub fn shape(&self) -> Option<PlacementShape> {
        let gpus: u32 = self.placement.iter().sum();
        if gpus == 0 {
            return None;
        }
        let nodes = self.placement.iter().filter(|&&g| g > 0).count() as u32;
        PlacementShape::new(gpus, nodes)
    }

    /// GPUs currently held.
    pub fn gpus(&self) -> u32 {
        self.placement.iter().sum()
    }

    /// The engine's one writer of the placement row: applies `edit`
    /// (replace, zero, or resize the row) and refreshes the cached
    /// shape. Reallocation, finish, preemption, and cluster resize all
    /// go through here, so the cache is rebuilt only when a placement
    /// actually changes.
    pub(crate) fn edit_placement(&mut self, edit: impl FnOnce(&mut Vec<u32>)) {
        edit(&mut self.placement);
        self.placed_shape = self.shape();
    }

    /// The placement shape cached by the last
    /// [`Self::edit_placement`]: O(1), equal to [`Self::shape`] as
    /// long as the row is written only through that setter.
    pub(crate) fn placed_shape(&self) -> Option<PlacementShape> {
        self.placed_shape
    }

    /// [`Self::true_t_iter`] at `shape` and the current batch size,
    /// memoised per `(shape, batch)`: between reallocations and batch
    /// re-tunes every chunk asks for the same value, and each
    /// recomputation costs three `powf`s. Bit-identical to the direct
    /// call (it stores exactly what the direct call returns).
    pub(crate) fn memo_t_iter(&mut self, shape: PlacementShape) -> f64 {
        let m = self.batch_size;
        match self.t_iter_memo {
            Some((s, b, t)) if s == shape && b == m => t,
            _ => {
                let t = self.true_t_iter(shape, m);
                self.t_iter_memo = Some((shape, m, t));
                t
            }
        }
    }

    /// Whether the cached shape and the memoised iteration time equal
    /// a fresh [`Self::shape`] / [`Self::true_t_iter`] (bitwise). The
    /// engine debug-asserts this every chunk.
    pub(crate) fn placement_cache_is_coherent(&self) -> bool {
        let memo_ok = self
            .t_iter_memo
            .is_none_or(|(s, m, t)| t.to_bits() == self.true_t_iter(s, m).to_bits());
        self.placed_shape == self.shape() && memo_ok
    }

    /// Normalized training progress in [0, 1].
    pub fn progress_fraction(&self) -> f64 {
        (self.progress / self.spec.work).clamp(0.0, 1.0)
    }

    /// Remaining work in examples at m0-efficiency (oracle quantity,
    /// exposed to Optimus+Oracle per Sec. 5.2).
    pub fn remaining_work(&self) -> f64 {
        (self.spec.work - self.progress).max(0.0)
    }

    /// The **true** gradient noise scale at the current progress.
    pub fn true_phi(&self) -> f64 {
        self.profile.phi_at(self.progress_fraction())
    }

    /// The **true** statistical efficiency at batch size `m` right now.
    pub fn true_efficiency(&self, m: u64) -> f64 {
        self.true_efficiency_at(self.progress, m)
    }

    /// [`true_efficiency`](Self::true_efficiency) evaluated at a
    /// caller-supplied progress value instead of the stored one. The
    /// job-major engine advances progress in a thread-private register
    /// across a whole chunk and needs the efficiency curve at each
    /// intermediate value; the operations are identical to the
    /// stored-progress path, so feeding back the same progress yields
    /// the same bits.
    pub fn true_efficiency_at(&self, progress: f64, m: u64) -> f64 {
        let frac = (progress / self.spec.work).clamp(0.0, 1.0);
        EfficiencyModel::from_noise_scale(self.profile.m0, self.profile.phi_at(frac))
            .expect("phi > 0 from the profile")
            .efficiency(m)
    }

    /// The **true** iteration time under `shape` at batch `m`
    /// (before any interference slowdown).
    pub fn true_t_iter(&self, shape: PlacementShape, m: u64) -> f64 {
        self.profile.params.t_iter(shape, m)
    }

    /// The **true** throughput (examples/s) under `shape` at batch `m`.
    pub fn true_throughput(&self, shape: PlacementShape, m: u64) -> f64 {
        self.profile.params.throughput(shape, m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pollux_cluster::JobId;
    use pollux_workload::{ModelKind, TraceConfig, TraceGenerator};

    fn sample_job() -> SimJob {
        let trace = TraceGenerator::new(TraceConfig::default())
            .unwrap()
            .generate();
        let spec = trace
            .iter()
            .find(|j| j.kind == ModelKind::ResNet18Cifar10)
            .unwrap()
            .clone();
        let user = spec.tuned;
        SimJob::new(spec, user, 4)
    }

    #[test]
    fn new_job_is_pending_and_unplaced() {
        let j = sample_job();
        assert_eq!(j.state(), JobState::Pending);
        assert_eq!(j.shape(), None);
        assert_eq!(j.gpus(), 0);
        assert_eq!(j.progress_fraction(), 0.0);
        assert!(!j.is_finished());
        assert!(!j.is_running());
        assert!(j.remaining_work() > 0.0);
        assert_eq!(j.spec.id, JobId(j.spec.id.0)); // id round-trips
    }

    #[test]
    fn shape_tracks_placement() {
        let mut j = sample_job();
        j.placement = vec![2, 0, 1, 0];
        assert_eq!(j.shape(), PlacementShape::new(3, 2));
        assert_eq!(j.gpus(), 3);
    }

    #[test]
    fn batch_size_never_below_m0() {
        let trace = TraceGenerator::new(TraceConfig::default())
            .unwrap()
            .generate();
        let spec = trace[0].clone();
        let m0 = spec.kind.profile().m0;
        let user = UserConfig {
            gpus: 1,
            batch_size: 1,
        };
        let j = SimJob::new(spec, user, 4);
        assert_eq!(j.batch_size, m0);
    }

    #[test]
    fn true_phi_rises_with_progress() {
        let mut j = sample_job();
        let early = j.true_phi();
        j.progress = j.spec.work * 0.9;
        let late = j.true_phi();
        assert!(late > early);
        // Efficiency at a big batch improves accordingly.
        assert!(j.true_efficiency(4096) > 0.0);
    }

    #[test]
    fn progress_fraction_clamps() {
        let mut j = sample_job();
        j.progress = j.spec.work * 2.0;
        assert_eq!(j.progress_fraction(), 1.0);
        assert_eq!(j.remaining_work(), 0.0);
    }

    #[test]
    fn truth_matches_profile_params() {
        let j = sample_job();
        let shape = PlacementShape::new(4, 1).unwrap();
        assert_eq!(
            j.true_t_iter(shape, 512),
            j.profile.params.t_iter(shape, 512)
        );
        assert_eq!(
            j.true_throughput(shape, 512),
            j.profile.params.throughput(shape, 512)
        );
    }

    proptest::proptest! {
        /// At its `m0` every model trains at efficiency exactly 1.0,
        /// whatever the progress (clamped or not): the identity behind
        /// the engine's unit-efficiency fast path.
        #[test]
        fn efficiency_at_m0_is_exactly_one(kind in 0usize..5, frac in -0.5f64..2.0) {
            let mut j = sample_job();
            j.profile = ModelKind::ALL[kind].profile();
            let (p, m0) = (frac * j.spec.work, j.profile.m0);
            proptest::prop_assert_eq!(j.true_efficiency_at(p, m0).to_bits(), 1.0f64.to_bits());
        }
    }

    #[test]
    fn view_reflects_job_state() {
        let mut job = sample_job();
        job.placement = vec![0, 2, 0, 0];
        job.lifecycle.accrue_gputime(120.0);
        job.progress = job.spec.work / 2.0;

        let v = job.policy_view();
        assert_eq!(v.id, job.spec.id);
        assert!(v.is_running());
        assert!(!v.started, "GPUs held but never granted through a round");
        assert_eq!(v.gputime, 120.0);
        assert!((v.remaining_work - job.spec.work / 2.0).abs() < 1e-6);
        assert!(v.report.is_none(), "no fit yet");
    }

    #[test]
    fn view_report_appears_after_fit() {
        let mut job = sample_job();
        let shape = PlacementShape::single();
        let t = job.true_t_iter(shape, job.profile.m0);
        job.agent.observe_iteration(shape, job.profile.m0, t);
        assert!(job.agent.refit());
        let v = job.policy_view();
        assert!(v.report.is_some());
    }
}
