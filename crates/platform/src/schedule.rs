//! The schedule produced by a simulation run (paper §III-B).
//!
//! A schedule consists of the allocation `alloc(i)`, the disjoint
//! execution intervals `E_i`, the uplink intervals `U_i(o_i, alloc(i))`,
//! and the downlink intervals `D_i(alloc(i), o_i)` of each job, plus the
//! completion times. Activity spent in attempts that were abandoned by a
//! re-execution is kept separately: it occupies resources (and the
//! validity checker accounts for that) but contributes nothing to the
//! final execution of the job.
//!
//! Neither half keeps a heap vector per job. While a run advances,
//! [`TraceBuilder`] appends every segment to one log, each linked to the
//! previous segment of the same job's attempt. [`TraceBuilder::finish`]
//! lays the final attempts' intervals out in one array, grouped by job
//! and then by phase, with one offsets array to find each group.

use crate::activity::{Phase, Target};
use crate::job::JobId;
use mmsec_sim::{Interval, Time};

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

/// Interval groups per job, one per [`Phase`], in phase order.
const PHASES: usize = 3;

/// Position of `phase` among a job's interval groups.
fn phase_slot(phase: Phase) -> usize {
    match phase {
        Phase::Uplink => 0,
        Phase::Compute => 1,
        Phase::Downlink => 2,
    }
}

/// Full record of a simulation run.
#[derive(Clone, Debug, PartialEq)]
pub struct Schedule {
    /// Final allocation per job (`Some` once the job was placed).
    pub alloc: Vec<Option<Target>>,
    /// The final (successful) attempts' intervals, grouped by job, then
    /// by phase (uplink, compute, downlink). Each group is sorted by
    /// start time and pairwise disjoint, with exactly touching members
    /// merged, as an [`mmsec_sim::IntervalSet`] would hold it.
    intervals: Vec<Interval>,
    /// Group `PHASES · i + p` (job `i`, phase slot `p`) is
    /// `intervals[offsets[g]..offsets[g + 1]]`.
    offsets: Vec<u32>,
    /// Completion time `C_i` per job.
    pub completion: Vec<Option<Time>>,
    /// Segments of abandoned attempts (work lost to re-execution), in
    /// the order they were recorded.
    pub abandoned: Vec<Segment>,
    /// Number of restarts per job.
    pub restarts: Vec<u32>,
}

impl Schedule {
    /// Number of jobs covered.
    pub fn num_jobs(&self) -> usize {
        self.alloc.len()
    }

    /// Intervals of job `i`'s final attempt in `phase`, sorted by start.
    fn phase_intervals(&self, i: usize, phase: Phase) -> &[Interval] {
        let g = PHASES * i + phase_slot(phase);
        &self.intervals[self.offsets[g] as usize..self.offsets[g + 1] as usize]
    }

    /// Execution intervals `E_i` of the final attempt.
    pub fn exec(&self, i: usize) -> &[Interval] {
        self.phase_intervals(i, Phase::Compute)
    }

    /// Uplink intervals `U_i` of the final attempt (empty for edge jobs).
    pub fn up(&self, i: usize) -> &[Interval] {
        self.phase_intervals(i, Phase::Uplink)
    }

    /// Downlink intervals `D_i` of the final attempt.
    pub fn dn(&self, i: usize) -> &[Interval] {
        self.phase_intervals(i, Phase::Downlink)
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

/// End of a job's segment chain in the [`TraceBuilder`] log.
const NONE: u32 = u32::MAX;

/// One segment in the [`TraceBuilder`] log. The job is implied: the entry
/// is reached only through its job's chain.
#[derive(Clone, Copy, Debug)]
struct LogEntry {
    phase: Phase,
    target: Target,
    interval: Interval,
    /// Log index of the same attempt's previous segment, or [`NONE`].
    prev: u32,
}

/// Incrementally builds a [`Schedule`] as the engine advances.
#[derive(Clone, Debug)]
pub struct TraceBuilder {
    /// Every segment recorded since the last [`TraceBuilder::clear`], in
    /// record order. An abandoned attempt's entries stay, unreachable.
    log: Vec<LogEntry>,
    /// Per job: log index of the latest segment of its current attempt,
    /// or [`NONE`].
    latest: Vec<u32>,
    abandoned: Vec<Segment>,
    alloc: Vec<Option<Target>>,
    completion: Vec<Option<Time>>,
    restarts: Vec<u32>,
}

impl TraceBuilder {
    /// Creates a builder for `n` jobs.
    pub fn new(n: usize) -> Self {
        TraceBuilder {
            log: Vec::new(),
            latest: vec![NONE; n],
            abandoned: Vec::new(),
            alloc: vec![None; n],
            completion: vec![None; n],
            restarts: vec![0; n],
        }
    }

    /// Extends the builder by `extra` fresh jobs (streaming sessions
    /// admit jobs after construction).
    pub fn grow(&mut self, extra: usize) {
        let n = self.latest.len() + extra;
        self.latest.resize(n, NONE);
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
        let latest = self.latest[job.0];
        if latest != NONE {
            let last = &mut self.log[latest as usize];
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
        assert!(self.log.len() < NONE as usize, "trace log is full");
        self.latest[job.0] = self.log.len() as u32;
        self.log.push(LogEntry {
            phase,
            target,
            interval,
            prev: latest,
        });
    }

    /// Marks the in-flight attempt of `job` as abandoned (re-execution).
    pub fn abandon(&mut self, job: JobId) {
        self.restarts[job.0] += 1;
        let from = self.abandoned.len();
        let mut at = std::mem::replace(&mut self.latest[job.0], NONE);
        while at != NONE {
            let e = self.log[at as usize];
            self.abandoned.push(Segment {
                job,
                phase: e.phase,
                target: e.target,
                interval: e.interval,
            });
            at = e.prev;
        }
        // The chain runs newest first; the list keeps record order.
        self.abandoned[from..].reverse();
        self.alloc[job.0] = None;
    }

    /// Marks `job` complete at `t`.
    pub fn complete(&mut self, job: JobId, t: Time) {
        debug_assert!(self.completion[job.0].is_none(), "{job} completed twice");
        self.completion[job.0] = Some(t);
    }

    /// Forgets every job, keeping the storage of the log and of the
    /// per-job tables for the jobs that [`TraceBuilder::grow`] adds next.
    pub fn clear(&mut self) {
        self.log.clear();
        self.latest.clear();
        self.abandoned.clear();
        self.alloc.clear();
        self.completion.clear();
        self.restarts.clear();
    }

    /// Finalizes the schedule: one counting pass over the live chains
    /// sizes each (job, phase) group, one scatter pass fills them, so the
    /// result costs the same few allocations whatever the job count.
    ///
    /// # Panics
    ///
    /// When two intervals recorded for one job and phase overlap (the
    /// engine never records such a pair).
    pub fn finish(self) -> Schedule {
        let groups = PHASES * self.latest.len();
        let mut offsets = vec![0u32; groups + 1];
        for (i, &latest) in self.latest.iter().enumerate() {
            let mut at = latest;
            while at != NONE {
                let e = &self.log[at as usize];
                offsets[PHASES * i + phase_slot(e.phase) + 1] += 1;
                at = e.prev;
            }
        }
        for g in 0..groups {
            offsets[g + 1] += offsets[g];
        }
        let placeholder = Interval::new(Time::ZERO, Time::ZERO);
        let mut intervals = vec![placeholder; offsets[groups] as usize];
        for (i, &latest) in self.latest.iter().enumerate() {
            // A chain runs newest first, so each group fills from its end.
            let mut end = [0u32; PHASES];
            end.copy_from_slice(&offsets[PHASES * i + 1..PHASES * (i + 1) + 1]);
            let mut at = latest;
            while at != NONE {
                let e = &self.log[at as usize];
                let slot = &mut end[phase_slot(e.phase)];
                *slot -= 1;
                intervals[*slot as usize] = e.interval;
                at = e.prev;
            }
        }
        canonicalize(&mut intervals, &mut offsets);
        Schedule {
            alloc: self.alloc,
            intervals,
            offsets,
            completion: self.completion,
            abandoned: self.abandoned,
            restarts: self.restarts,
        }
    }
}

/// Brings every group to the form an [`mmsec_sim::IntervalSet`] holds:
/// sorted by start, with exactly touching members merged (in place; the
/// offsets follow). Engine groups arrive sorted and unmergeable, so for
/// them this is one pass that moves nothing.
fn canonicalize(intervals: &mut Vec<Interval>, offsets: &mut [u32]) {
    let mut w = 0;
    for g in 0..offsets.len() - 1 {
        let (lo, hi) = (offsets[g] as usize, offsets[g + 1] as usize);
        let group = &mut intervals[lo..hi];
        if group.windows(2).any(|p| p[1].start() < p[0].start()) {
            group.sort_unstable_by_key(|iv| iv.start());
        }
        offsets[g] = w as u32;
        let first = w;
        for r in lo..hi {
            let iv = intervals[r];
            if w > first {
                let last = &mut intervals[w - 1];
                assert!(
                    !last.overlaps(&iv),
                    "engine produced overlapping intervals for one job"
                );
                if last.end() == iv.start() {
                    *last = Interval::new(last.start(), iv.end());
                    continue;
                }
            }
            intervals[w] = iv;
            w += 1;
        }
    }
    *offsets.last_mut().expect("offsets has groups + 1 entries") = w as u32;
    intervals.truncate(w);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::CloudId;
    use mmsec_sim::interval::total_length;

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
        assert_eq!(s.up(0).len(), 1);
        assert_eq!(total_length(s.up(0)), Time::new(2.0));
        assert_eq!(s.exec(0).len(), 2);
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
        assert!(s.exec(0).is_empty());
        assert_eq!(s.up(0).len(), 1);
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
        let storage = tb.log.as_ptr();
        tb.clear();
        // The next job starts from a fresh, empty record on reused storage.
        tb.grow(1);
        tb.record(JobId(0), Phase::Compute, Target::Edge, iv(5.0, 6.0));
        assert_eq!(tb.log.as_ptr(), storage);
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
        assert!(s.exec(0).is_empty());
        assert_eq!(s.alloc[0], None);
        assert!(!s.all_finished());
        assert_eq!(s.makespan(), None);
    }

    #[test]
    #[should_panic(expected = "overlapping intervals")]
    fn overlapping_intervals_of_one_phase_panic() {
        let mut tb = TraceBuilder::new(1);
        tb.record(JobId(0), Phase::Compute, Target::Edge, iv(0.0, 2.0));
        tb.record(JobId(0), Phase::Compute, Target::Edge, iv(1.0, 3.0));
        let _ = tb.finish();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "completed twice")]
    fn double_completion_panics() {
        let mut tb = TraceBuilder::new(1);
        tb.complete(JobId(0), Time::new(1.0));
        tb.complete(JobId(0), Time::new(2.0));
    }

    /// The per-job-vector trace builder the log replaced, kept as the
    /// oracle of [`log_oracle`]: one segment vector per job, and one
    /// [`IntervalSet`] per job and phase in the finished schedule.
    mod reference {
        use super::*;
        use mmsec_sim::IntervalSet;

        pub struct Finished {
            pub alloc: Vec<Option<Target>>,
            pub exec: Vec<IntervalSet>,
            pub up: Vec<IntervalSet>,
            pub dn: Vec<IntervalSet>,
            pub completion: Vec<Option<Time>>,
            pub abandoned: Vec<Segment>,
            pub restarts: Vec<u32>,
        }

        pub struct VecTrace {
            current: Vec<Vec<Segment>>,
            abandoned: Vec<Segment>,
            alloc: Vec<Option<Target>>,
            completion: Vec<Option<Time>>,
            restarts: Vec<u32>,
        }

        impl VecTrace {
            pub fn new(n: usize) -> Self {
                VecTrace {
                    current: vec![Vec::new(); n],
                    abandoned: Vec::new(),
                    alloc: vec![None; n],
                    completion: vec![None; n],
                    restarts: vec![0; n],
                }
            }

            pub fn grow(&mut self, extra: usize) {
                let n = self.current.len() + extra;
                self.current.resize_with(n, Vec::new);
                self.alloc.resize(n, None);
                self.completion.resize(n, None);
                self.restarts.resize(n, 0);
            }

            pub fn record(&mut self, job: JobId, phase: Phase, target: Target, interval: Interval) {
                if interval.is_empty() {
                    return;
                }
                self.alloc[job.0] = Some(target);
                let segs = &mut self.current[job.0];
                if let Some(last) = segs.last_mut() {
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

            pub fn abandon(&mut self, job: JobId) {
                self.restarts[job.0] += 1;
                self.abandoned.append(&mut self.current[job.0]);
                self.alloc[job.0] = None;
            }

            pub fn complete(&mut self, job: JobId, t: Time) {
                self.completion[job.0] = Some(t);
            }

            pub fn clear(&mut self) {
                self.current.clear();
                self.abandoned.clear();
                self.alloc.clear();
                self.completion.clear();
                self.restarts.clear();
            }

            pub fn finish(self) -> Finished {
                let n = self.current.len();
                let mut exec = vec![IntervalSet::new(); n];
                let mut up = vec![IntervalSet::new(); n];
                let mut dn = vec![IntervalSet::new(); n];
                for s in self.current.iter().flatten() {
                    let set = match s.phase {
                        Phase::Uplink => &mut up[s.job.0],
                        Phase::Compute => &mut exec[s.job.0],
                        Phase::Downlink => &mut dn[s.job.0],
                    };
                    set.insert(s.interval)
                        .expect("engine produced overlapping intervals for one job");
                }
                Finished {
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
    }

    mod log_oracle {
        use super::reference::VecTrace;
        use super::*;
        use mmsec_sim::seed::SplitMix64;
        use proptest::prelude::*;

        /// Time slots a job may use; each record claims one unused slot,
        /// so a job's final attempt never overlaps itself.
        const SLOTS: usize = 48;

        /// Drives both builders through one random operation sequence:
        /// records on the slot after the job's last one (touching, so
        /// the log merges) or on a random free slot (gapped or out of
        /// order, so `finish` sorts and merges), in random phases and
        /// targets, empty intervals, abandons, completions, clears and
        /// growth after a clear.
        fn drive(seed: u64) -> (Schedule, reference::Finished) {
            let mut rng = SplitMix64::new(seed);
            let mut below = |n: usize| (rng.next_u64() % n as u64) as usize;
            let n0 = below(6);
            let mut log = TraceBuilder::new(n0);
            let mut vecs = VecTrace::new(n0);
            let mut used: Vec<[bool; SLOTS]> = vec![[false; SLOTS]; n0];
            let mut last_slot: Vec<Option<usize>> = vec![None; n0];
            let mut done: Vec<bool> = vec![false; n0];
            for _ in 0..below(160) {
                let n = used.len();
                let op = below(100);
                if n == 0 || op < 6 {
                    let extra = 1 + below(3);
                    log.grow(extra);
                    vecs.grow(extra);
                    used.resize(n + extra, [false; SLOTS]);
                    last_slot.resize(n + extra, None);
                    done.resize(n + extra, false);
                    continue;
                }
                if op < 8 {
                    log.clear();
                    vecs.clear();
                    used.clear();
                    last_slot.clear();
                    done.clear();
                    continue;
                }
                let j = below(n);
                let job = JobId(j);
                if op < 14 {
                    log.abandon(job);
                    vecs.abandon(job);
                    last_slot[j] = None;
                    continue;
                }
                if op < 20 {
                    if !done[j] {
                        let t = Time::new(below(SLOTS) as f64);
                        log.complete(job, t);
                        vecs.complete(job, t);
                        done[j] = true;
                    }
                    continue;
                }
                let next = last_slot[j].map(|k| k + 1).filter(|&k| k < SLOTS);
                let slot = match next {
                    Some(k) if !used[j][k] && below(2) == 0 => k,
                    _ => {
                        let k = below(SLOTS);
                        if used[j][k] {
                            continue;
                        }
                        k
                    }
                };
                used[j][slot] = true;
                last_slot[j] = Some(slot);
                let k = slot as f64;
                let interval = match below(4) {
                    0 => iv(k + 0.25, k + 0.75),
                    1 => iv(k + 0.5, k + 0.5),
                    _ => iv(k, k + 1.0),
                };
                let phase = [Phase::Uplink, Phase::Compute, Phase::Downlink][below(3)];
                let target = if below(4) == 0 {
                    Target::Edge
                } else {
                    Target::Cloud(CloudId(below(2)))
                };
                log.record(job, phase, target, interval);
                vecs.record(job, phase, target, interval);
            }
            (log.finish(), vecs.finish())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// The flat log and the flat schedule match the per-job
            /// vectors and interval sets they replaced, field by field.
            #[test]
            fn log_matches_per_job_vectors(seed in any::<u64>()) {
                let (flat, reference) = drive(seed);
                prop_assert_eq!(flat.num_jobs(), reference.alloc.len());
                prop_assert_eq!(&flat.alloc, &reference.alloc);
                prop_assert_eq!(&flat.completion, &reference.completion);
                prop_assert_eq!(&flat.restarts, &reference.restarts);
                prop_assert_eq!(&flat.abandoned, &reference.abandoned);
                for i in 0..flat.num_jobs() {
                    let sets = [
                        (flat.up(i), &reference.up[i]),
                        (flat.exec(i), &reference.exec[i]),
                        (flat.dn(i), &reference.dn[i]),
                    ];
                    for (got, want) in sets {
                        let want: Vec<Interval> = want.iter().copied().collect();
                        prop_assert_eq!(got, &want[..]);
                    }
                }
            }
        }
    }
}
