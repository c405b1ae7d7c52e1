//! Struct-of-arrays storage for per-job dynamic state.
//!
//! The engine's hot loops — the decide-time pending scan, the grant walk,
//! and the progress-accrual sweep — each touch one or two fields of *many*
//! jobs, not many fields of one job. [`JobArena`] therefore stores each
//! [`JobState`] field in its own dense [`Vec`] indexed by raw
//! [`JobId`](crate::JobId) value, so a sweep over `running` or `finished`
//! walks contiguous memory instead of striding over 80-byte structs.
//!
//! The arena also caches the *stretch denominator* `min(tᵉᵢ, tᶜᵢ)` of
//! every job ([`JobArena::min_time`]), an `O(num_clouds)` fold over cloud
//! speeds that the stretch/deadline helpers would otherwise recompute on
//! every query. The cache is keyed to the platform spec the owning engine
//! currently reports: the engine recomputes it whenever a committed
//! platform mutation changes speeds or membership
//! ([`JobArena::recompute_min_times`]), so reads are always coherent with
//! [`SimView::spec`](crate::SimView::spec) — and bit-identical to an
//! uncached recomputation, since the cached value is produced by the very
//! same fold.
//!
//! The arena is the only copy of job progress a policy reads, and it owns
//! the progress arithmetic: the keep-or-restart rule
//! ([`JobArena::volumes_on`]), the next-phase rule
//! ([`JobArena::current_phase`], via [`Phase::first`]), and the
//! contention-free durations built on them. [`JobState`] is only the
//! one-job record that [`JobArena::push`] and [`JobArena::from_states`]
//! take.

use super::JobState;
use crate::activity::{Phase, Target};
use crate::instance::Instance;
use crate::job::Job;
use crate::spec::PlatformSpec;
use mmsec_sim::Time;

/// Dense struct-of-arrays job state, indexed by raw job id.
///
/// Every column has the same length; [`JobArena::push`] grows them in
/// lock-step. Columns are public for direct indexed access on hot paths
/// (mirroring the public fields of [`JobState`]).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct JobArena {
    /// The job has been released (`now ≥ r_i`).
    pub released: Vec<bool>,
    /// The job has fully completed (result delivered at the origin).
    pub finished: Vec<bool>,
    /// Completion time `C_i`, once finished.
    pub completion: Vec<Option<Time>>,
    /// Resource the job is committed to (None before any placement).
    pub committed: Vec<Option<Target>>,
    /// Uplink time already transferred (time units).
    pub up_done: Vec<f64>,
    /// Work already computed (work units).
    pub work_done: Vec<f64>,
    /// Downlink time already transferred (time units).
    pub dn_done: Vec<f64>,
    /// Phase currently running, if the job holds resources right now.
    pub running: Vec<Option<Phase>>,
    /// Number of re-executions from scratch this job has suffered.
    pub restarts: Vec<u32>,
    /// Cached stretch denominator `min(tᵉᵢ, tᶜᵢ)` under the spec the
    /// owning engine currently reports (see the module docs).
    pub min_time: Vec<f64>,
}

impl JobArena {
    /// An empty arena.
    pub fn new() -> Self {
        JobArena::default()
    }

    /// Fresh (default) state for every job of `instance`, with the
    /// min-time cache computed under `spec`.
    pub fn fresh(instance: &Instance, spec: &PlatformSpec) -> Self {
        let mut arena = JobArena::new();
        for (_, job) in instance.iter_jobs() {
            arena.push(JobState::default(), job.min_time(spec));
        }
        arena
    }

    /// Builds an arena from per-job records, computing the min-time cache
    /// from the instance's frozen spec — the convenience constructor for
    /// ad-hoc views in tests and tools.
    pub fn from_states(instance: &Instance, states: &[JobState]) -> Self {
        assert_eq!(states.len(), instance.num_jobs(), "one state per job");
        let mut arena = JobArena::new();
        for (st, (_, job)) in states.iter().zip(instance.iter_jobs()) {
            arena.push(st.clone(), job.min_time(&instance.spec));
        }
        arena
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.released.len()
    }

    /// True when the arena holds no jobs.
    pub fn is_empty(&self) -> bool {
        self.released.is_empty()
    }

    /// Appends one job's state (all columns in lock-step); `min_time` is
    /// its stretch denominator under the current spec.
    pub fn push(&mut self, st: JobState, min_time: f64) {
        self.released.push(st.released);
        self.finished.push(st.finished);
        self.completion.push(st.completion);
        self.committed.push(st.committed);
        self.up_done.push(st.up_done);
        self.work_done.push(st.work_done);
        self.dn_done.push(st.dn_done);
        self.running.push(st.running);
        self.restarts.push(st.restarts);
        self.min_time.push(min_time);
    }

    /// Drops every job, keeping each column's capacity: the next
    /// [`JobArena::push`]es refill the same storage.
    pub fn clear(&mut self) {
        self.released.clear();
        self.finished.clear();
        self.completion.clear();
        self.committed.clear();
        self.up_done.clear();
        self.work_done.clear();
        self.dn_done.clear();
        self.running.clear();
        self.restarts.clear();
        self.min_time.clear();
    }

    /// Recomputes the min-time cache for every job under `spec`. Called by
    /// the engine after each committed platform mutation (speed changes
    /// and unit membership both move the denominators).
    pub fn recompute_min_times(&mut self, instance: &Instance, spec: &PlatformSpec) {
        for (id, job) in instance.iter_jobs() {
            self.min_time[id.0] = job.min_time(spec);
        }
    }

    /// True when job `i` has been released but not finished.
    #[inline]
    pub fn active(&self, i: usize) -> bool {
        self.released[i] && !self.finished[i]
    }

    /// Wipes job `i`'s progress (re-execution from scratch).
    pub fn reset_progress(&mut self, i: usize) {
        self.up_done[i] = 0.0;
        self.work_done[i] = 0.0;
        self.dn_done[i] = 0.0;
        self.restarts[i] += 1;
    }

    /// Remaining uplink time for job `i` if continuing on a cloud target.
    #[inline]
    pub fn remaining_up(&self, i: usize, job: &Job) -> f64 {
        (job.up - self.up_done[i]).max(0.0)
    }

    /// Remaining work (in work units) for job `i`.
    #[inline]
    pub fn remaining_work(&self, i: usize, job: &Job) -> f64 {
        (job.work - self.work_done[i]).max(0.0)
    }

    /// Remaining downlink time for job `i`.
    #[inline]
    pub fn remaining_dn(&self, i: usize, job: &Job) -> f64 {
        (job.dn - self.dn_done[i]).max(0.0)
    }

    /// All three remaining volumes `(up, work, dn)` of job `i`.
    #[inline]
    fn remaining(&self, i: usize, job: &Job) -> (f64, f64, f64) {
        (
            self.remaining_up(i, job),
            self.remaining_work(i, job),
            self.remaining_dn(i, job),
        )
    }

    /// Volumes `(up, work, dn)` job `i` has to run if placed on `target`:
    /// the remaining ones on its committed target (progress is kept), the
    /// job's full ones anywhere else (re-execution from scratch). The one
    /// keep-or-restart rule every forecast and duration builds on.
    #[inline]
    pub fn volumes_on(&self, i: usize, job: &Job, target: Target) -> (f64, f64, f64) {
        if self.committed[i] == Some(target) {
            self.remaining(i, job)
        } else {
            (job.up, job.work, job.dn)
        }
    }

    /// The phase job `i` would run next if (re)activated on `target`,
    /// skipping phases with (approximately) no remaining volume; `None`
    /// when nothing remains. Progress counts only on the committed target:
    /// callers weighing a *switch* want [`JobArena::volumes_on`] instead.
    #[inline]
    pub fn current_phase(&self, i: usize, job: &Job, target: Target) -> Option<Phase> {
        Phase::first(target, self.remaining(i, job))
    }

    /// Contention-free remaining duration if job `i` continues on `target`
    /// (same-commitment progress) — the optimistic completion-time
    /// estimate every heuristic of §V builds on.
    #[inline]
    pub fn remaining_time_on(
        &self,
        i: usize,
        job: &Job,
        target: Target,
        spec: &PlatformSpec,
    ) -> f64 {
        duration(job, target, self.remaining(i, job), spec)
    }

    /// Contention-free time job `i`'s progress so far took on `target`:
    /// its done volumes, priced as [`JobArena::remaining_time_on`] prices
    /// the remaining ones. On the committed target, this is what a switch
    /// throws away.
    #[inline]
    pub fn done_time_on(&self, i: usize, job: &Job, target: Target, spec: &PlatformSpec) -> f64 {
        let done = (self.up_done[i], self.work_done[i], self.dn_done[i]);
        duration(job, target, done, spec)
    }

    /// Contention-free remaining duration of job `i` on `target`,
    /// accounting for a from-scratch reset when `target` differs from the
    /// committed one.
    #[inline]
    pub fn duration_if_placed(
        &self,
        i: usize,
        job: &Job,
        target: Target,
        spec: &PlatformSpec,
    ) -> f64 {
        duration(job, target, self.volumes_on(i, job, target), spec)
    }
}

/// Contention-free duration of volumes `(up, work, dn)` of `job` on
/// `target`: work at the target CPU's speed, transfers priced along the
/// tier path (the same expression as [`Job::edge_time`] and
/// [`Job::cloud_time_on`] on the full volumes).
#[inline]
fn duration(
    job: &Job,
    target: Target,
    (up, work, dn): (f64, f64, f64),
    spec: &PlatformSpec,
) -> f64 {
    match target {
        Target::Edge => work / spec.edge_speed(job.origin),
        Target::Cloud(k) => {
            up * spec.path_up(k) + work / spec.cloud_speed(k) + dn * spec.path_dn(k)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobId;
    use crate::spec::{CloudId, EdgeId};

    fn fixture() -> Instance {
        let spec = PlatformSpec::builder()
            .edges(vec![0.5])
            .cloud_pool(2)
            .build();
        let job = Job::new(EdgeId(0), 1.0, 4.0, 2.0, 1.0);
        Instance::new(spec, vec![job]).unwrap()
    }

    #[test]
    fn round_trips_job_state() {
        let inst = fixture();
        let st = JobState {
            released: true,
            up_done: 1.5,
            committed: Some(Target::Cloud(CloudId(0))),
            restarts: 2,
            ..JobState::default()
        };
        let arena = JobArena::from_states(&inst, std::slice::from_ref(&st));
        assert_eq!(arena.len(), 1);
        assert!(arena.released[0] && !arena.finished[0]);
        assert_eq!(arena.completion[0], None);
        assert_eq!(arena.committed[0], st.committed);
        assert_eq!(
            (arena.up_done[0], arena.work_done[0], arena.dn_done[0]),
            (1.5, 0.0, 0.0)
        );
        assert_eq!(arena.running[0], None);
        assert_eq!(arena.restarts[0], 2);
        // min_time = min(4/0.5, 2+4+1) = 7 under the frozen spec.
        assert!((arena.min_time[0] - 7.0).abs() < 1e-12);
    }

    #[test]
    fn columns_grow_in_lock_step() {
        let inst = fixture();
        let job = inst.job(JobId(0));
        let mut arena = JobArena::fresh(&inst, &inst.spec);
        assert!(!arena.active(0));
        arena.released[0] = true;
        assert!(arena.active(0));
        arena.up_done[0] = 2.0;
        let tgt = Target::Cloud(CloudId(0));
        assert_eq!(arena.current_phase(0, job, tgt), Some(Phase::Compute));
        // 0 up + 4 work + 1 dn left on cloud 0.
        assert_eq!(arena.remaining_time_on(0, job, tgt, &inst.spec), 5.0);
        arena.committed[0] = Some(tgt);
        assert_eq!(arena.volumes_on(0, job, tgt), (0.0, 4.0, 1.0));
        // The edge restarts from scratch: 4 / 0.5.
        assert_eq!(arena.volumes_on(0, job, Target::Edge), (2.0, 4.0, 1.0));
        assert_eq!(
            arena.duration_if_placed(0, job, Target::Edge, &inst.spec),
            8.0
        );
        arena.reset_progress(0);
        assert_eq!(arena.up_done[0], 0.0);
        assert_eq!(arena.restarts[0], 1);
    }

    #[test]
    fn clear_empties_every_column_and_keeps_capacity() {
        let inst = fixture();
        let mut arena = JobArena::fresh(&inst, &inst.spec);
        arena.released[0] = true;
        arena.work_done[0] = 1.5;
        let cap = arena.work_done.capacity();
        arena.clear();
        assert!(arena.is_empty());
        assert_eq!(arena, JobArena::new());
        assert_eq!(arena.work_done.capacity(), cap);
        // A job pushed after the clear starts from the default state.
        arena.push(JobState::default(), 7.0);
        assert_eq!(arena, JobArena::fresh(&inst, &inst.spec));
    }

    #[test]
    fn recompute_min_times_tracks_the_spec() {
        let inst = fixture();
        let mut arena = JobArena::fresh(&inst, &inst.spec);
        assert!((arena.min_time[0] - 7.0).abs() < 1e-12);
        // A faster platform shrinks the denominator.
        let faster = PlatformSpec::builder()
            .edges(vec![1.0])
            .cloud_pool(2)
            .build();
        arena.recompute_min_times(&inst, &faster);
        assert!((arena.min_time[0] - 4.0).abs() < 1e-12);
    }
}
