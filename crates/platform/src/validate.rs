//! Full schedule validity checker (paper §III-B).
//!
//! Verifies, for a produced [`Schedule`] against its [`Instance`]:
//!
//! 1. every job completes, at the end of its last activity interval;
//! 2. no activity of a job starts before its release date;
//! 3. volume constraints: `Σ|E_i| ≥ w_i / speed`, `Σ|U_i| ≥ up_i`,
//!    `Σ|D_i| ≥ dn_i` (per the final attempt's allocation);
//! 4. ordering: uplink completes before computation starts, computation
//!    completes before downlink starts;
//! 5. exclusive resources: CPU intervals of jobs sharing a processor are
//!    disjoint, and (one-port model) communication intervals sharing a
//!    sender or receiver port are disjoint — *including* the intervals of
//!    abandoned attempts, which occupied resources too;
//! 6. §VII extension: no computation overlaps a cloud unavailability
//!    window.

use crate::activity::{Phase, Target};
use crate::instance::Instance;
use crate::job::JobId;
use crate::resource::{ResourceId, ResourceIndex};
use crate::schedule::{Schedule, Segment};
use mmsec_sim::interval::total_length;
use mmsec_sim::time::approx;
use mmsec_sim::{Interval, Time};
use std::fmt;

/// Validation knobs.
#[derive(Clone, Copy, Debug)]
pub struct ValidateOptions {
    /// Check one-port exclusivity on communication ports (disable when the
    /// schedule was produced with `EngineOptions::infinite_ports`).
    pub check_ports: bool,
    /// Require every job to have completed.
    pub require_finished: bool,
}

impl Default for ValidateOptions {
    fn default() -> Self {
        ValidateOptions {
            check_ports: true,
            require_finished: true,
        }
    }
}

/// A specific violation of the §III-B constraints.
#[derive(Clone, Debug, PartialEq)]
pub enum Violation {
    /// Job never completed.
    Unfinished(JobId),
    /// Job has no allocation but has completed.
    Unallocated(JobId),
    /// An activity interval starts before the job's release date.
    BeforeRelease {
        /// Offending job.
        job: JobId,
        /// Start of the offending interval (seconds).
        start: f64,
        /// Release date (seconds).
        release: f64,
    },
    /// Total volume of a phase is insufficient.
    MissingVolume {
        /// Offending job.
        job: JobId,
        /// Phase with missing volume.
        phase: Phase,
        /// Required time (seconds).
        required: f64,
        /// Accumulated time (seconds).
        got: f64,
    },
    /// Phase ordering violated (e.g. computation before uplink finished).
    OutOfOrder {
        /// Offending job.
        job: JobId,
        /// Earlier phase that must complete first.
        before: Phase,
        /// Later phase that started too early.
        after: Phase,
    },
    /// A job allocated to the edge has communication intervals.
    SpuriousCommunication(JobId),
    /// Completion time does not match the end of the last activity.
    CompletionMismatch {
        /// Offending job.
        job: JobId,
        /// Recorded completion (seconds).
        recorded: f64,
        /// End of the last activity (seconds).
        actual: f64,
    },
    /// Two activities overlap on an exclusive resource.
    ResourceOverlap {
        /// The contended resource.
        resource: ResourceId,
        /// First job.
        a: JobId,
        /// Second job.
        b: JobId,
        /// Overlap amount (seconds).
        overlap: f64,
    },
    /// A computation overlaps a cloud unavailability window.
    UnavailableCloudUsed {
        /// Offending job.
        job: JobId,
        /// The window that was violated.
        window: Interval,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Unfinished(j) => write!(f, "{j} never completed"),
            Violation::Unallocated(j) => write!(f, "{j} completed without an allocation"),
            Violation::BeforeRelease {
                job,
                start,
                release,
            } => {
                write!(f, "{job} active at {start} before release {release}")
            }
            Violation::MissingVolume {
                job,
                phase,
                required,
                got,
            } => {
                write!(f, "{job} {phase}: needs {required}, got {got}")
            }
            Violation::OutOfOrder { job, before, after } => {
                write!(f, "{job}: {after} starts before {before} completes")
            }
            Violation::SpuriousCommunication(j) => {
                write!(f, "{j} runs on the edge but has communication intervals")
            }
            Violation::CompletionMismatch {
                job,
                recorded,
                actual,
            } => {
                write!(
                    f,
                    "{job}: completion recorded {recorded}, activities end {actual}"
                )
            }
            Violation::ResourceOverlap {
                resource,
                a,
                b,
                overlap,
            } => {
                write!(f, "{a} and {b} overlap by {overlap} on {resource}")
            }
            Violation::UnavailableCloudUsed { job, window } => {
                write!(f, "{job} computes during unavailability window {window:?}")
            }
        }
    }
}

/// Validates `schedule` against `instance` with default options.
pub fn validate(instance: &Instance, schedule: &Schedule) -> Result<(), Vec<Violation>> {
    validate_with(instance, schedule, ValidateOptions::default())
}

/// Validates with explicit options; returns all violations found.
pub fn validate_with(
    instance: &Instance,
    schedule: &Schedule,
    opts: ValidateOptions,
) -> Result<(), Vec<Violation>> {
    let mut v = Vec::new();
    check_jobs(instance, schedule, opts, &mut v);
    check_resources(instance, schedule, opts, &mut v);
    check_windows(instance, schedule, &mut v);
    if v.is_empty() {
        Ok(())
    } else {
        Err(v)
    }
}

fn check_jobs(
    instance: &Instance,
    schedule: &Schedule,
    opts: ValidateOptions,
    v: &mut Vec<Violation>,
) {
    let spec = &instance.spec;
    // Abandoned segments that start before their job's release, found in
    // one pass and grouped by job (a stable sort keeps record order), so
    // the per-job loop reports them without scanning the whole list.
    let mut early: Vec<&Segment> = schedule
        .abandoned
        .iter()
        .filter(|s| {
            instance
                .jobs
                .get(s.job.0)
                .is_some_and(|job| approx::lt(s.interval.start().seconds(), job.release.seconds()))
        })
        .collect();
    early.sort_by_key(|s| s.job);
    let mut next_early = 0;
    for (id, job) in instance.iter_jobs() {
        let i = id.0;
        // This job's early abandoned segments; those of jobs skipped
        // below are never reported.
        let from = next_early + early[next_early..].partition_point(|s| s.job < id);
        next_early = from + early[from..].partition_point(|s| s.job == id);
        let early_here = &early[from..next_early];
        let completion = schedule.completion[i];
        if completion.is_none() {
            if opts.require_finished {
                v.push(Violation::Unfinished(id));
            }
            continue;
        }
        let Some(target) = schedule.alloc[i] else {
            v.push(Violation::Unallocated(id));
            continue;
        };

        // 2. Release dates (final attempt + abandoned attempts).
        let release = job.release.seconds();
        let mut check_release = |start: Option<Time>| {
            if let Some(s) = start {
                if approx::lt(s.seconds(), release) {
                    v.push(Violation::BeforeRelease {
                        job: id,
                        start: s.seconds(),
                        release,
                    });
                }
            }
        };
        let (exec, up, dn) = (schedule.exec(i), schedule.up(i), schedule.dn(i));
        let min_start = |ivs: &[Interval]| ivs.first().map(Interval::start);
        let max_end = |ivs: &[Interval]| ivs.last().map(Interval::end);
        check_release(min_start(exec));
        check_release(min_start(up));
        check_release(min_start(dn));
        for seg in early_here {
            check_release(Some(seg.interval.start()));
        }

        // 3. Volumes, 4. ordering, and the shape of the allocation.
        let exec_len = total_length(exec).seconds();
        let up_len = total_length(up).seconds();
        let dn_len = total_length(dn).seconds();
        match target {
            Target::Edge => {
                let required = job.work / spec.edge_speed(job.origin);
                if approx::lt(exec_len, required) {
                    v.push(Violation::MissingVolume {
                        job: id,
                        phase: Phase::Compute,
                        required,
                        got: exec_len,
                    });
                }
                if !up.is_empty() || !dn.is_empty() {
                    v.push(Violation::SpuriousCommunication(id));
                }
            }
            Target::Cloud(k) => {
                let required = job.work / spec.cloud_speed(k);
                if approx::lt(exec_len, required) {
                    v.push(Violation::MissingVolume {
                        job: id,
                        phase: Phase::Compute,
                        required,
                        got: exec_len,
                    });
                }
                // Transfers are priced along the tier path: volume ×
                // per-hop link-time factors (exactly the volume on a
                // flat platform, where every path factor is 1.0).
                let required_up = job.up * spec.path_up(k);
                if approx::lt(up_len, required_up) {
                    v.push(Violation::MissingVolume {
                        job: id,
                        phase: Phase::Uplink,
                        required: required_up,
                        got: up_len,
                    });
                }
                let required_dn = job.dn * spec.path_dn(k);
                if approx::lt(dn_len, required_dn) {
                    v.push(Violation::MissingVolume {
                        job: id,
                        phase: Phase::Downlink,
                        required: required_dn,
                        got: dn_len,
                    });
                }
                // max(U_i) ≤ min(E_i), max(E_i) ≤ min(D_i).
                if let (Some(u_end), Some(e_start)) = (max_end(up), min_start(exec)) {
                    if approx::gt(u_end.seconds(), e_start.seconds()) {
                        v.push(Violation::OutOfOrder {
                            job: id,
                            before: Phase::Uplink,
                            after: Phase::Compute,
                        });
                    }
                }
                if let (Some(e_end), Some(d_start)) = (max_end(exec), min_start(dn)) {
                    if approx::gt(e_end.seconds(), d_start.seconds()) {
                        v.push(Violation::OutOfOrder {
                            job: id,
                            before: Phase::Compute,
                            after: Phase::Downlink,
                        });
                    }
                }
            }
        }

        // 1. Completion = end of the last activity.
        let last_end = [max_end(exec), max_end(up), max_end(dn)]
            .into_iter()
            .flatten()
            .max();
        if let (Some(c), Some(e)) = (completion, last_end) {
            if !c.approx_eq(e) {
                v.push(Violation::CompletionMismatch {
                    job: id,
                    recorded: c.seconds(),
                    actual: e.seconds(),
                });
            }
        }
    }
}

/// All `(interval, job)` uses of every resource, final and abandoned,
/// indexed densely by [`ResourceIndex`]. Shared with the statistics
/// module so the two never diverge.
pub(crate) fn resource_usage(
    instance: &Instance,
    schedule: &Schedule,
) -> Vec<Vec<(Interval, JobId)>> {
    let spec = &instance.spec;
    let index = ResourceIndex::new(spec);
    let mut usage: Vec<Vec<(Interval, JobId)>> = vec![Vec::new(); index.count()];
    let mut add = |job: JobId, phase: Phase, target: Target, iv: Interval| {
        let resources = phase.resources(instance.job(job), target);
        for r in resources.iter() {
            usage[index.index(r)].push((iv, job));
        }
    };
    for (id, _) in instance.iter_jobs() {
        let i = id.0;
        if let Some(target) = schedule.alloc[i] {
            for iv in schedule.exec(i) {
                add(id, Phase::Compute, target, *iv);
            }
            for iv in schedule.up(i) {
                add(id, Phase::Uplink, target, *iv);
            }
            for iv in schedule.dn(i) {
                add(id, Phase::Downlink, target, *iv);
            }
        }
    }
    for seg in &schedule.abandoned {
        add(seg.job, seg.phase, seg.target, seg.interval);
    }
    usage
}

fn check_resources(
    instance: &Instance,
    schedule: &Schedule,
    opts: ValidateOptions,
    v: &mut Vec<Violation>,
) {
    let index = ResourceIndex::new(&instance.spec);
    let mut usage = resource_usage(instance, schedule);
    for (ri, uses) in usage.iter_mut().enumerate() {
        let resource = index.resource(ri);
        let is_port = !matches!(resource, ResourceId::EdgeCpu(_) | ResourceId::CloudCpu(_));
        if is_port && !opts.check_ports {
            continue;
        }
        uses.sort_by_key(|u| u.0);
        for w in uses.windows(2) {
            let ((prev, pj), (next, nj)) = (w[0], w[1]);
            let overlap = prev.end().seconds() - next.start().seconds();
            if approx::gt(prev.end().seconds(), next.start().seconds()) {
                v.push(Violation::ResourceOverlap {
                    resource,
                    a: pj,
                    b: nj,
                    overlap,
                });
            }
        }
    }
}

fn check_windows(instance: &Instance, schedule: &Schedule, v: &mut Vec<Violation>) {
    let spec = &instance.spec;
    if !spec.has_unavailability() {
        return;
    }
    let mut check = |job: JobId, k: crate::spec::CloudId, ivs: &[Interval]| {
        for w in spec.cloud_unavailability(k).iter() {
            for iv in ivs {
                if let Some(inter) = iv.intersect(w) {
                    if !inter.is_empty() {
                        v.push(Violation::UnavailableCloudUsed { job, window: *w });
                    }
                }
            }
        }
    };
    for (id, _) in instance.iter_jobs() {
        if let Some(Target::Cloud(k)) = schedule.alloc[id.0] {
            check(id, k, schedule.exec(id.0));
        }
    }
    for seg in &schedule.abandoned {
        if let (Phase::Compute, Target::Cloud(k)) = (seg.phase, seg.target) {
            check(seg.job, k, &[seg.interval]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Job;
    use crate::schedule::TraceBuilder;
    use crate::spec::{CloudId, EdgeId, PlatformSpec};
    use mmsec_sim::Time;

    fn instance_one_cloud() -> Instance {
        let spec = PlatformSpec::builder()
            .edges(vec![0.5])
            .cloud_pool(1)
            .build();
        Instance::new(spec, vec![Job::new(EdgeId(0), 0.0, 2.0, 1.0, 1.0)]).unwrap()
    }

    fn iv(a: f64, b: f64) -> Interval {
        Interval::from_secs(a, b)
    }

    #[test]
    fn accepts_correct_cloud_schedule() {
        let inst = instance_one_cloud();
        let mut tb = TraceBuilder::new(1);
        let tgt = Target::Cloud(CloudId(0));
        tb.record(JobId(0), Phase::Uplink, tgt, iv(0.0, 1.0));
        tb.record(JobId(0), Phase::Compute, tgt, iv(1.0, 3.0));
        tb.record(JobId(0), Phase::Downlink, tgt, iv(3.0, 4.0));
        tb.complete(JobId(0), Time::new(4.0));
        assert_eq!(validate(&inst, &tb.finish()), Ok(()));
    }

    #[test]
    fn detects_missing_volume() {
        let inst = instance_one_cloud();
        let mut tb = TraceBuilder::new(1);
        let tgt = Target::Cloud(CloudId(0));
        tb.record(JobId(0), Phase::Uplink, tgt, iv(0.0, 1.0));
        tb.record(JobId(0), Phase::Compute, tgt, iv(1.0, 2.0)); // needs 2, got 1
        tb.record(JobId(0), Phase::Downlink, tgt, iv(2.0, 3.0));
        tb.complete(JobId(0), Time::new(3.0));
        let errs = validate(&inst, &tb.finish()).unwrap_err();
        assert!(errs.iter().any(|e| matches!(
            e,
            Violation::MissingVolume {
                phase: Phase::Compute,
                ..
            }
        )));
    }

    #[test]
    fn detects_phase_order_violation() {
        let inst = instance_one_cloud();
        let mut tb = TraceBuilder::new(1);
        let tgt = Target::Cloud(CloudId(0));
        // Compute before uplink finishes.
        tb.record(JobId(0), Phase::Compute, tgt, iv(0.0, 2.0));
        tb.record(JobId(0), Phase::Uplink, tgt, iv(2.0, 3.0));
        tb.record(JobId(0), Phase::Downlink, tgt, iv(3.0, 4.0));
        tb.complete(JobId(0), Time::new(4.0));
        let errs = validate(&inst, &tb.finish()).unwrap_err();
        assert!(errs.iter().any(|e| matches!(
            e,
            Violation::OutOfOrder {
                before: Phase::Uplink,
                after: Phase::Compute,
                ..
            }
        )));
    }

    #[test]
    fn detects_work_before_release() {
        let spec = PlatformSpec::builder()
            .edges(vec![1.0])
            .cloud_pool(0)
            .build();
        let inst = Instance::new(spec, vec![Job::new(EdgeId(0), 5.0, 1.0, 0.0, 0.0)]).unwrap();
        let mut tb = TraceBuilder::new(1);
        tb.record(JobId(0), Phase::Compute, Target::Edge, iv(0.0, 1.0));
        tb.complete(JobId(0), Time::new(1.0));
        let errs = validate(&inst, &tb.finish()).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, Violation::BeforeRelease { .. })));
    }

    #[test]
    fn detects_abandoned_work_before_release_in_job_order() {
        let spec = PlatformSpec::builder()
            .edges(vec![1.0])
            .cloud_pool(0)
            .build();
        let jobs = vec![
            Job::new(EdgeId(0), 4.0, 1.0, 0.0, 0.0),
            Job::new(EdgeId(0), 2.0, 1.0, 0.0, 0.0),
            Job::new(EdgeId(0), 9.0, 1.0, 0.0, 0.0),
        ];
        let inst = Instance::new(spec, jobs).unwrap();
        let mut tb = TraceBuilder::new(3);
        // Abandoned attempts recorded out of job order: J2's and J1's
        // start before their releases, J3's does not.
        tb.record(JobId(1), Phase::Compute, Target::Edge, iv(0.0, 0.5));
        tb.abandon(JobId(1));
        tb.record(JobId(0), Phase::Compute, Target::Edge, iv(1.0, 1.5));
        tb.record(JobId(2), Phase::Compute, Target::Edge, iv(9.0, 9.5));
        tb.abandon(JobId(0));
        tb.abandon(JobId(2));
        tb.record(JobId(0), Phase::Compute, Target::Edge, iv(1.5, 1.75));
        tb.abandon(JobId(0));
        for (j, a, b) in [(1, 2.0, 3.0), (0, 4.0, 5.0), (2, 9.5, 10.5)] {
            tb.record(JobId(j), Phase::Compute, Target::Edge, iv(a, b));
            tb.complete(JobId(j), Time::new(b));
        }
        let errs = validate(&inst, &tb.finish()).unwrap_err();
        let early = |job: usize, start: f64, release: f64| Violation::BeforeRelease {
            job: JobId(job),
            start,
            release,
        };
        assert_eq!(
            errs,
            vec![early(0, 1.0, 4.0), early(0, 1.5, 4.0), early(1, 0.0, 2.0)]
        );
    }

    #[test]
    fn detects_resource_overlap_between_jobs() {
        let spec = PlatformSpec::builder()
            .edges(vec![1.0])
            .cloud_pool(0)
            .build();
        let jobs = vec![
            Job::new(EdgeId(0), 0.0, 2.0, 0.0, 0.0),
            Job::new(EdgeId(0), 0.0, 2.0, 0.0, 0.0),
        ];
        let inst = Instance::new(spec, jobs).unwrap();
        let mut tb = TraceBuilder::new(2);
        // Both run on the single edge CPU at the same time: invalid.
        tb.record(JobId(0), Phase::Compute, Target::Edge, iv(0.0, 2.0));
        tb.record(JobId(1), Phase::Compute, Target::Edge, iv(1.0, 3.0));
        tb.complete(JobId(0), Time::new(2.0));
        tb.complete(JobId(1), Time::new(3.0));
        let errs = validate(&inst, &tb.finish()).unwrap_err();
        assert!(errs.iter().any(|e| matches!(
            e,
            Violation::ResourceOverlap {
                resource: ResourceId::EdgeCpu(_),
                ..
            }
        )));
    }

    #[test]
    fn detects_one_port_violation_and_option_disables_it() {
        let spec = PlatformSpec::builder()
            .edges(vec![1.0])
            .cloud_pool(2)
            .build();
        let jobs = vec![
            Job::new(EdgeId(0), 0.0, 1.0, 2.0, 0.0),
            Job::new(EdgeId(0), 0.0, 1.0, 2.0, 0.0),
        ];
        let inst = Instance::new(spec, jobs).unwrap();
        let mut tb = TraceBuilder::new(2);
        // Parallel uplinks from one edge: violates EdgeOut exclusivity.
        tb.record(
            JobId(0),
            Phase::Uplink,
            Target::Cloud(CloudId(0)),
            iv(0.0, 2.0),
        );
        tb.record(
            JobId(1),
            Phase::Uplink,
            Target::Cloud(CloudId(1)),
            iv(0.0, 2.0),
        );
        tb.record(
            JobId(0),
            Phase::Compute,
            Target::Cloud(CloudId(0)),
            iv(2.0, 3.0),
        );
        tb.record(
            JobId(1),
            Phase::Compute,
            Target::Cloud(CloudId(1)),
            iv(2.0, 3.0),
        );
        tb.complete(JobId(0), Time::new(3.0));
        tb.complete(JobId(1), Time::new(3.0));
        let schedule = tb.finish();
        let errs = validate(&inst, &schedule).unwrap_err();
        assert!(errs.iter().any(|e| matches!(
            e,
            Violation::ResourceOverlap {
                resource: ResourceId::EdgeOut(_),
                ..
            }
        )));
        // With port checks disabled (macro-dataflow), the schedule passes.
        let opts = ValidateOptions {
            check_ports: false,
            ..ValidateOptions::default()
        };
        assert_eq!(validate_with(&inst, &schedule, opts), Ok(()));
    }

    #[test]
    fn abandoned_segments_occupy_resources() {
        let spec = PlatformSpec::builder()
            .edges(vec![1.0])
            .cloud_pool(0)
            .build();
        let jobs = vec![
            Job::new(EdgeId(0), 0.0, 2.0, 0.0, 0.0),
            Job::new(EdgeId(0), 0.0, 2.0, 0.0, 0.0),
        ];
        let inst = Instance::new(spec, jobs).unwrap();
        let mut tb = TraceBuilder::new(2);
        // J1's abandoned attempt overlaps J2's execution on the edge CPU.
        tb.record(JobId(0), Phase::Compute, Target::Edge, iv(0.0, 1.5));
        tb.abandon(JobId(0));
        tb.record(JobId(0), Phase::Compute, Target::Edge, iv(3.0, 5.0));
        tb.record(JobId(1), Phase::Compute, Target::Edge, iv(1.0, 3.0));
        tb.complete(JobId(0), Time::new(5.0));
        tb.complete(JobId(1), Time::new(3.0));
        let errs = validate(&inst, &tb.finish()).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, Violation::ResourceOverlap { .. })));
    }

    #[test]
    fn detects_unfinished_job() {
        let inst = instance_one_cloud();
        let schedule = TraceBuilder::new(1).finish();
        let errs = validate(&inst, &schedule).unwrap_err();
        assert_eq!(errs, vec![Violation::Unfinished(JobId(0))]);
        // ... unless finishing is not required.
        let opts = ValidateOptions {
            require_finished: false,
            ..ValidateOptions::default()
        };
        assert_eq!(validate_with(&inst, &schedule, opts), Ok(()));
    }

    #[test]
    fn detects_completion_mismatch() {
        let spec = PlatformSpec::builder()
            .edges(vec![1.0])
            .cloud_pool(0)
            .build();
        let inst = Instance::new(spec, vec![Job::new(EdgeId(0), 0.0, 1.0, 0.0, 0.0)]).unwrap();
        let mut tb = TraceBuilder::new(1);
        tb.record(JobId(0), Phase::Compute, Target::Edge, iv(0.0, 1.0));
        tb.complete(JobId(0), Time::new(2.5));
        let errs = validate(&inst, &tb.finish()).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, Violation::CompletionMismatch { .. })));
    }

    #[test]
    fn detects_computation_in_unavailability_window() {
        let spec = PlatformSpec::builder()
            .edges(vec![1.0])
            .cloud_pool(1)
            .build()
            .with_cloud_unavailability(CloudId(0), &[iv(1.0, 2.0)]);
        let inst = Instance::new(spec, vec![Job::new(EdgeId(0), 0.0, 3.0, 0.0, 0.0)]).unwrap();
        let mut tb = TraceBuilder::new(1);
        tb.record(
            JobId(0),
            Phase::Compute,
            Target::Cloud(CloudId(0)),
            iv(0.0, 3.0),
        );
        tb.complete(JobId(0), Time::new(3.0));
        let errs = validate(&inst, &tb.finish()).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, Violation::UnavailableCloudUsed { .. })));
    }

    #[test]
    fn violation_messages_render() {
        let v = Violation::MissingVolume {
            job: JobId(0),
            phase: Phase::Compute,
            required: 2.0,
            got: 1.0,
        };
        assert!(v.to_string().contains("J1"));
        let v = Violation::ResourceOverlap {
            resource: ResourceId::EdgeCpu(EdgeId(0)),
            a: JobId(0),
            b: JobId(1),
            overlap: 0.5,
        };
        assert!(v.to_string().contains("overlap"));
    }
}
