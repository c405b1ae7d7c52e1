//! The schedule produced by a simulation run (paper §III-B).
//!
//! A schedule consists of the allocation `alloc(i)`, the disjoint
//! execution intervals `E_i`, the uplink intervals `U_i(o_i, alloc(i))`,
//! and the downlink intervals `D_i(alloc(i), o_i)` of each job, plus the
//! completion times. Activity spent in attempts that were abandoned by a
//! re-execution is kept separately: it occupies resources (and the
//! validity checker accounts for that) but contributes nothing to the
//! final execution of the job.

use crate::activity::{Phase, Target};
use crate::job::JobId;
use mmsec_sim::{Interval, IntervalSet, Time};

/// One contiguous stretch of activity of a job on fixed resources.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Segment {
    /// The job.
    pub job: JobId,
    /// Phase being advanced.
    pub phase: Phase,
    /// Target the attempt was committed to.
    pub target: Target,
    /// Time interval of the activity.
    pub interval: Interval,
}

/// Full record of a simulation run.
#[derive(Clone, Debug, PartialEq)]
pub struct Schedule {
    /// Final allocation per job (`Some` once the job was placed).
    pub alloc: Vec<Option<Target>>,
    /// Execution intervals `E_i` of the final (successful) attempt.
    pub exec: Vec<IntervalSet>,
    /// Uplink intervals `U_i` of the final attempt (empty for edge jobs).
    pub up: Vec<IntervalSet>,
    /// Downlink intervals `D_i` of the final attempt.
    pub dn: Vec<IntervalSet>,
    /// Completion time `C_i` per job.
    pub completion: Vec<Option<Time>>,
    /// Segments of abandoned attempts (work lost to re-execution).
    pub abandoned: Vec<Segment>,
    /// Number of restarts per job.
    pub restarts: Vec<u32>,
}

impl Schedule {
    /// Number of jobs covered.
    pub fn num_jobs(&self) -> usize {
        self.alloc.len()
    }

    /// Latest completion time (None when no job completed).
    pub fn makespan(&self) -> Option<Time> {
        self.completion.iter().flatten().copied().max()
    }

    /// Total time lost to abandoned attempts.
    pub fn wasted_time(&self) -> Time {
        self.abandoned
            .iter()
            .fold(Time::ZERO, |acc, s| acc + s.interval.length())
    }

    /// True when every job completed.
    pub fn all_finished(&self) -> bool {
        self.completion.iter().all(|c| c.is_some())
    }
}

/// Incrementally builds a [`Schedule`] as the engine advances.
#[derive(Clone, Debug)]
pub struct TraceBuilder {
    current: Vec<Vec<Segment>>,
    abandoned: Vec<Segment>,
    alloc: Vec<Option<Target>>,
    completion: Vec<Option<Time>>,
    restarts: Vec<u32>,
    /// Emptied per-job segment vectors kept by [`TraceBuilder::clear`];
    /// [`TraceBuilder::grow`] hands them to the next jobs, so a builder
    /// that is cleared and refilled reuses their storage.
    spare: Vec<Vec<Segment>>,
}

impl TraceBuilder {
    /// Creates a builder for `n` jobs.
    pub fn new(n: usize) -> Self {
        TraceBuilder {
            current: vec![Vec::new(); n],
            abandoned: Vec::new(),
            alloc: vec![None; n],
            completion: vec![None; n],
            restarts: vec![0; n],
            spare: Vec::new(),
        }
    }

    /// Extends the builder by `extra` fresh jobs (streaming sessions
    /// admit jobs after construction).
    pub fn grow(&mut self, extra: usize) {
        let n = self.current.len() + extra;
        let spare = &mut self.spare;
        self.current
            .resize_with(n, || spare.pop().unwrap_or_default());
        self.alloc.resize(n, None);
        self.completion.resize(n, None);
        self.restarts.resize(n, 0);
    }

    /// Records activity of `job` in `interval`; merges with the previous
    /// segment when contiguous and of the same phase/target.
    pub fn record(&mut self, job: JobId, phase: Phase, target: Target, interval: Interval) {
        if interval.is_empty() {
            return;
        }
        self.alloc[job.0] = Some(target);
        let segs = &mut self.current[job.0];
        if let Some(last) = segs.last_mut() {
            // Exact-equality contiguity: the engine reuses the same float
            // for adjacent window boundaries. A tolerance here would merge
            // across genuine micro-gaps in which another job held the
            // resource, fabricating overlaps.
            if last.phase == phase
                && last.target == target
                && last.interval.end() == interval.start()
            {
                last.interval = Interval::new(last.interval.start(), interval.end());
                return;
            }
        }
        segs.push(Segment {
            job,
            phase,
            target,
            interval,
        });
    }

    /// Marks the in-flight attempt of `job` as abandoned (re-execution).
    pub fn abandon(&mut self, job: JobId) {
        self.restarts[job.0] += 1;
        self.abandoned.append(&mut self.current[job.0]);
        self.alloc[job.0] = None;
    }

    /// Marks `job` complete at `t`.
    pub fn complete(&mut self, job: JobId, t: Time) {
        debug_assert!(self.completion[job.0].is_none(), "{job} completed twice");
        self.completion[job.0] = Some(t);
    }

    /// Forgets every job, keeping the storage: the per-job segment
    /// vectors are emptied into the spare list that
    /// [`TraceBuilder::grow`] draws from.
    pub fn clear(&mut self) {
        for mut segs in self.current.drain(..) {
            segs.clear();
            self.spare.push(segs);
        }
        self.abandoned.clear();
        self.alloc.clear();
        self.completion.clear();
        self.restarts.clear();
    }

    /// Finalizes the schedule.
    pub fn finish(self) -> Schedule {
        let n = self.current.len();
        let mut exec = vec![IntervalSet::new(); n];
        let mut up = vec![IntervalSet::new(); n];
        let mut dn = vec![IntervalSet::new(); n];
        for segs in &self.current {
            for s in segs {
                let set = match s.phase {
                    Phase::Uplink => &mut up[s.job.0],
                    Phase::Compute => &mut exec[s.job.0],
                    Phase::Downlink => &mut dn[s.job.0],
                };
                set.insert(s.interval)
                    .expect("engine produced overlapping intervals for one job");
            }
        }
        Schedule {
            alloc: self.alloc,
            exec,
            up,
            dn,
            completion: self.completion,
            abandoned: self.abandoned,
            restarts: self.restarts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::CloudId;

    fn iv(a: f64, b: f64) -> Interval {
        Interval::from_secs(a, b)
    }

    #[test]
    fn records_and_merges_contiguous_segments() {
        let mut tb = TraceBuilder::new(1);
        let tgt = Target::Cloud(CloudId(0));
        tb.record(JobId(0), Phase::Uplink, tgt, iv(0.0, 1.0));
        tb.record(JobId(0), Phase::Uplink, tgt, iv(1.0, 2.0));
        tb.record(JobId(0), Phase::Compute, tgt, iv(2.0, 3.0));
        tb.record(JobId(0), Phase::Compute, tgt, iv(5.0, 6.0)); // gap: no merge
        tb.complete(JobId(0), Time::new(6.0));
        let s = tb.finish();
        assert_eq!(s.up[0].len(), 1);
        assert_eq!(s.up[0].total_length(), Time::new(2.0));
        assert_eq!(s.exec[0].len(), 2);
        assert_eq!(s.completion[0], Some(Time::new(6.0)));
        assert_eq!(s.alloc[0], Some(tgt));
        assert!(s.all_finished());
        assert_eq!(s.makespan(), Some(Time::new(6.0)));
    }

    #[test]
    fn abandon_moves_segments() {
        let mut tb = TraceBuilder::new(1);
        tb.record(JobId(0), Phase::Compute, Target::Edge, iv(0.0, 2.0));
        tb.abandon(JobId(0));
        tb.record(
            JobId(0),
            Phase::Uplink,
            Target::Cloud(CloudId(0)),
            iv(2.0, 3.0),
        );
        tb.complete(JobId(0), Time::new(3.0));
        let s = tb.finish();
        assert_eq!(s.restarts[0], 1);
        assert_eq!(s.abandoned.len(), 1);
        assert_eq!(s.abandoned[0].phase, Phase::Compute);
        assert!(s.exec[0].is_empty());
        assert_eq!(s.up[0].len(), 1);
        assert_eq!(s.wasted_time(), Time::new(2.0));
        assert_eq!(s.alloc[0], Some(Target::Cloud(CloudId(0))));
    }

    #[test]
    fn clear_forgets_jobs_and_reuses_segment_storage() {
        let mut tb = TraceBuilder::new(2);
        tb.record(JobId(0), Phase::Compute, Target::Edge, iv(0.0, 1.0));
        tb.abandon(JobId(0));
        tb.record(JobId(1), Phase::Compute, Target::Edge, iv(1.0, 2.0));
        tb.complete(JobId(1), Time::new(2.0));
        let storage = tb.current[1].as_ptr();
        tb.clear();
        assert_eq!(tb.spare.len(), 2);
        // The next job starts from a fresh, empty record on reused storage.
        tb.grow(1);
        assert_eq!(tb.current[0].as_ptr(), storage);
        tb.record(JobId(0), Phase::Compute, Target::Edge, iv(5.0, 6.0));
        tb.complete(JobId(0), Time::new(6.0));
        let mut fresh = TraceBuilder::new(1);
        fresh.record(JobId(0), Phase::Compute, Target::Edge, iv(5.0, 6.0));
        fresh.complete(JobId(0), Time::new(6.0));
        assert_eq!(tb.finish(), fresh.finish());
    }

    #[test]
    fn empty_intervals_ignored() {
        let mut tb = TraceBuilder::new(1);
        tb.record(JobId(0), Phase::Compute, Target::Edge, iv(1.0, 1.0));
        let s = tb.finish();
        assert!(s.exec[0].is_empty());
        assert_eq!(s.alloc[0], None);
        assert!(!s.all_finished());
        assert_eq!(s.makespan(), None);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "completed twice")]
    fn double_completion_panics() {
        let mut tb = TraceBuilder::new(1);
        tb.complete(JobId(0), Time::new(1.0));
        tb.complete(JobId(0), Time::new(2.0));
    }
}
