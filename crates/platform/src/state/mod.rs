//! Dynamic simulation state: per-job progress ([`JobArena`]) and the
//! versioned mutable platform runtime ([`platform::PlatformState`]).
//!
//! The read-only view handed to schedulers ([`crate::view::SimView`]) and
//! the incrementally maintained pending set live in [`crate::view`].

pub mod arena;
pub mod platform;

pub use arena::JobArena;
pub use platform::{PlatformError, PlatformMutation, PlatformState};

use crate::activity::{Phase, Target};
use mmsec_sim::Time;

/// One job's dynamic state as a plain record: what [`JobArena::push`] and
/// [`JobArena::from_states`] take. The arena owns the progress arithmetic;
/// a record only says which job is pending
/// ([`crate::view::PendingSet::from_states`] scans [`JobState::active`]).
#[derive(Clone, Debug, PartialEq)]
pub struct JobState {
    /// The job has been released (`now ≥ r_i`).
    pub released: bool,
    /// The job has fully completed (result delivered at the origin).
    pub finished: bool,
    /// Completion time `C_i`, once finished.
    pub completion: Option<Time>,
    /// Resource the job is committed to (None before any placement).
    pub committed: Option<Target>,
    /// Uplink time already transferred (time units).
    pub up_done: f64,
    /// Work already computed (work units).
    pub work_done: f64,
    /// Downlink time already transferred (time units).
    pub dn_done: f64,
    /// Phase currently running, if the job holds resources right now.
    pub running: Option<Phase>,
    /// Number of re-executions from scratch this job has suffered.
    pub restarts: u32,
}

impl Default for JobState {
    fn default() -> Self {
        JobState {
            released: false,
            finished: false,
            completion: None,
            committed: None,
            up_done: 0.0,
            work_done: 0.0,
            dn_done: 0.0,
            running: None,
            restarts: 0,
        }
    }
}

impl JobState {
    /// True when the job has been released but not finished.
    pub fn active(&self) -> bool {
        self.released && !self.finished
    }
}

#[cfg(test)]
mod tests {
    // The progress arithmetic on `JobArena`, from `JobState` records.
    use super::*;
    use crate::instance::Instance;
    use crate::job::{Job, JobId};
    use crate::spec::{CloudId, EdgeId, PlatformSpec};

    fn fixture() -> Instance {
        let spec = PlatformSpec::builder()
            .edges(vec![0.5])
            .cloud_pool(2)
            .build();
        let job = Job::new(EdgeId(0), 1.0, 4.0, 2.0, 1.0);
        Instance::new(spec, vec![job]).unwrap()
    }

    #[test]
    fn phase_progression_on_cloud() {
        let inst = fixture();
        let job = inst.job(JobId(0));
        let mut arena = JobArena::fresh(&inst, &inst.spec);
        let tgt = Target::Cloud(CloudId(0));
        assert_eq!(arena.current_phase(0, job, tgt), Some(Phase::Uplink));
        arena.up_done[0] = 2.0;
        assert_eq!(arena.current_phase(0, job, tgt), Some(Phase::Compute));
        arena.work_done[0] = 4.0;
        assert_eq!(arena.current_phase(0, job, tgt), Some(Phase::Downlink));
        arena.dn_done[0] = 1.0;
        assert_eq!(arena.current_phase(0, job, tgt), None);
    }

    #[test]
    fn phase_skips_zero_volumes() {
        let spec = PlatformSpec::builder()
            .edges(vec![1.0])
            .cloud_pool(1)
            .build();
        // Kang-style job: no downlink.
        let job = Job::new(EdgeId(0), 0.0, 3.0, 0.0, 0.0);
        let inst = Instance::new(spec, vec![job]).unwrap();
        let mut arena = JobArena::fresh(&inst, &inst.spec);
        // up = 0 → starts in Compute directly.
        assert_eq!(
            arena.current_phase(0, inst.job(JobId(0)), Target::Cloud(CloudId(0))),
            Some(Phase::Compute)
        );
        arena.work_done[0] = 3.0;
        // dn = 0 → complete as soon as work is done.
        assert_eq!(
            arena.current_phase(0, inst.job(JobId(0)), Target::Cloud(CloudId(0))),
            None
        );
    }

    #[test]
    fn remaining_times() {
        let inst = fixture();
        let job = inst.job(JobId(0));
        let spec = &inst.spec;
        let mut arena = JobArena::fresh(&inst, spec);
        // Fresh: edge 4/0.5 = 8; cloud 2+4+1 = 7.
        assert_eq!(arena.remaining_time_on(0, job, Target::Edge, spec), 8.0);
        assert_eq!(
            arena.remaining_time_on(0, job, Target::Cloud(CloudId(0)), spec),
            7.0
        );
        arena.up_done[0] = 1.5;
        arena.committed[0] = Some(Target::Cloud(CloudId(0)));
        assert_eq!(
            arena.duration_if_placed(0, job, Target::Cloud(CloudId(0)), spec),
            5.5
        );
        // Switching to the other cloud processor restarts from scratch.
        assert_eq!(
            arena.duration_if_placed(0, job, Target::Cloud(CloudId(1)), spec),
            7.0
        );
        // Switching to the edge restarts too.
        assert_eq!(arena.duration_if_placed(0, job, Target::Edge, spec), 8.0);
    }

    #[test]
    fn reset_progress_counts_restarts() {
        let inst = fixture();
        let st = JobState {
            up_done: 1.0,
            work_done: 2.0,
            dn_done: 0.5,
            ..JobState::default()
        };
        let mut arena = JobArena::from_states(&inst, &[st]);
        arena.reset_progress(0);
        assert_eq!(arena.up_done[0], 0.0);
        assert_eq!(arena.work_done[0], 0.0);
        assert_eq!(arena.dn_done[0], 0.0);
        assert_eq!(arena.restarts[0], 1);
    }
}
