//! Contention-profile projection: a fast forecast of job completion times.
//!
//! SSF-EDF (§V-D) must decide, for a candidate target stretch, whether all
//! deadlines can be met: it walks jobs in EDF order and assigns each "on
//! the processor where it completes the earliest". Completion here is
//! forecast with scalar *earliest-free* profiles per resource: placing a
//! job advances the profiles of the resources it uses. This is classical
//! list scheduling over the 6 resource families (CPUs + 4 port kinds) and
//! deliberately ignores future preemption — it is a forecast, not a
//! simulation; the actual execution stays event-driven and preemptive.

use crate::activity::Target;
use crate::job::Job;
use crate::resource::{ResourceId, ResourceMap};
use crate::spec::PlatformSpec;
use crate::view::SimView;
use mmsec_sim::Time;

/// Scalar earliest-free profiles for every resource.
#[derive(Clone, Debug)]
pub struct Projection {
    free: ResourceMap<Time>,
    /// Platform version the profiles were sized for (0 when built from a
    /// bare spec). [`Projection::reset_for`] rebuilds on mismatch.
    version: u64,
    /// Resources whose profile moved since the last reset (duplicates
    /// allowed). A reset only rewrites these entries: every profile read
    /// goes through [`Projection::forecast`], which clamps with
    /// `.max(now)`, so an untouched entry left at an *earlier* reset
    /// instant is indistinguishable from one rewritten to `now`.
    moved: Vec<ResourceId>,
    /// Latest reset instant. A reset that moves *backwards* in time
    /// (never the case inside a run, where `now` is monotone) falls back
    /// to the full fill, because stale untouched entries would then
    /// exceed `now` and survive the `.max(now)` clamp.
    floor: Time,
}

impl Projection {
    /// All resources free from `now` on.
    pub fn new(spec: &PlatformSpec, now: Time) -> Self {
        Projection {
            free: ResourceMap::new(spec, now),
            version: 0,
            moved: Vec::new(),
            floor: now,
        }
    }

    /// Profiles initialized from a simulation view (all resources free at
    /// `view.now`; running activities are re-decided anyway at an event).
    pub fn from_view(view: &SimView<'_>) -> Self {
        Projection {
            free: ResourceMap::new(view.spec(), view.now),
            version: view.platform_version(),
            moved: Vec::new(),
            floor: view.now,
        }
    }

    /// Re-frees every resource from `now` on, reusing the allocation:
    /// equivalent to building a fresh projection for the same platform.
    /// O(placements since the last reset), not O(resources).
    pub fn reset(&mut self, now: Time) {
        if now >= self.floor {
            for r in self.moved.drain(..) {
                self.free[r] = now;
            }
        } else {
            self.moved.clear();
            self.free.fill(now);
        }
        self.floor = now;
    }

    /// Version-aware [`Projection::reset`] for run-long holders: when the
    /// platform mutated since the profiles were built (units joined or
    /// left, so the maps are the wrong size), rebuilds them for the
    /// current spec; otherwise re-frees in place.
    pub fn reset_for(&mut self, view: &SimView<'_>) {
        if self.version != view.platform_version() {
            *self = Projection::from_view(view);
        } else {
            self.reset(view.now);
        }
    }

    /// Forecast completion time of `job` if placed next on `target` with
    /// volumes `vols` left, *without* reserving the resources.
    pub fn completion(
        &self,
        job: &Job,
        vols: (f64, f64, f64),
        target: Target,
        spec: &PlatformSpec,
        now: Time,
    ) -> Time {
        self.forecast(job, vols, target, spec, now).completion
    }

    /// Forecast and reserve: advances the profiles of every resource the
    /// job would use. Returns the forecast completion time.
    pub fn place(
        &mut self,
        job: &Job,
        vols: (f64, f64, f64),
        target: Target,
        spec: &PlatformSpec,
        now: Time,
    ) -> Time {
        let f = self.forecast(job, vols, target, spec, now);
        self.place_forecast(job, &f, target);
        f.completion
    }

    /// Applies an already-computed forecast's reservations. Callers that
    /// just obtained `f` from [`Projection::forecast`] on this projection
    /// (with no intervening mutation) get exactly the writes
    /// [`Projection::place`] would perform, without forecasting twice.
    pub fn place_forecast(&mut self, job: &Job, f: &Forecast, target: Target) {
        match target {
            Target::Edge => {
                self.free[ResourceId::EdgeCpu(job.origin)] = f.exec_end;
                self.moved.push(ResourceId::EdgeCpu(job.origin));
            }
            Target::Cloud(k) => {
                if f.has_up {
                    self.free[ResourceId::EdgeOut(job.origin)] = f.up_end;
                    self.free[ResourceId::CloudIn(k)] = f.up_end;
                    self.moved.push(ResourceId::EdgeOut(job.origin));
                    self.moved.push(ResourceId::CloudIn(k));
                }
                self.free[ResourceId::CloudCpu(k)] = f.exec_end;
                self.moved.push(ResourceId::CloudCpu(k));
                if f.has_dn {
                    self.free[ResourceId::CloudOut(k)] = f.completion;
                    self.free[ResourceId::EdgeIn(job.origin)] = f.completion;
                    self.moved.push(ResourceId::CloudOut(k));
                    self.moved.push(ResourceId::EdgeIn(job.origin));
                }
            }
        }
    }

    /// Raw forecast of one placement: the phase-end instants and which
    /// communication phases exist. `(up, work, dn)` are the volumes the
    /// job has left on `target` — [`JobArena::volumes_on`] for a running
    /// job, the job's full volumes for a fresh one; an edge run reads only
    /// `work`. Exposed so decision rounds can reuse the winning
    /// candidate's forecast at claim time instead of recomputing it.
    ///
    /// [`JobArena::volumes_on`]: crate::state::JobArena::volumes_on
    pub fn forecast(
        &self,
        job: &Job,
        (up, work, dn): (f64, f64, f64),
        target: Target,
        spec: &PlatformSpec,
        now: Time,
    ) -> Forecast {
        match target {
            Target::Edge => {
                let start = self.free[ResourceId::EdgeCpu(job.origin)].max(now);
                let end = start + Time::new(work / spec.edge_speed(job.origin));
                Forecast {
                    up_end: start,
                    exec_end: end,
                    completion: end,
                    has_up: false,
                    has_dn: false,
                }
            }
            Target::Cloud(k) => {
                // Communication *volumes* become link-time durations by
                // pricing them along the route: exactly `v * 1.0` (a
                // bitwise no-op) on the flat platform, `v * path` on a
                // continuum platform.
                let up = up * spec.path_up(k);
                let dn = dn * spec.path_dn(k);
                let has_up = up > 0.0;
                let up_start = if has_up {
                    self.free[ResourceId::EdgeOut(job.origin)]
                        .max(self.free[ResourceId::CloudIn(k)])
                        .max(now)
                } else {
                    now
                };
                let up_end = up_start + Time::new(up);
                let exec_start = up_end.max(self.free[ResourceId::CloudCpu(k)]).max(now);
                let exec_end = exec_start + Time::new(work / spec.cloud_speed(k));
                let has_dn = dn > 0.0;
                let dn_start = if has_dn {
                    exec_end
                        .max(self.free[ResourceId::CloudOut(k)])
                        .max(self.free[ResourceId::EdgeIn(job.origin)])
                } else {
                    exec_end
                };
                let completion = dn_start + Time::new(dn);
                Forecast {
                    up_end,
                    exec_end,
                    completion,
                    has_up,
                    has_dn,
                }
            }
        }
    }
}

/// Phase-end instants of one forecast placement.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Forecast {
    /// End of the uplink phase (equals its start when there is no uplink).
    pub up_end: Time,
    /// End of the compute phase.
    pub exec_end: Time,
    /// End of the last phase: the forecast completion time.
    pub completion: Time,
    /// Whether an uplink phase exists (reserves the uplink ports).
    pub has_up: bool,
    /// Whether a downlink phase exists (reserves the downlink ports).
    pub has_dn: bool,
}

impl Forecast {
    /// Closed-form forecast against a *pristine* projection — one whose
    /// every profile still equals `now` (freshly reset, nothing placed).
    /// Performs the exact floating-point operation sequence of
    /// [`Projection::forecast`] specialized to `free[r] == now`, so the
    /// result is bit-identical (pinned by the `pristine_matches_forecast`
    /// proptest below); it just skips the profile loads. `speed` is the
    /// target CPU's speed; `(up, work, dn)` are the remaining volumes.
    pub fn pristine(target: Target, up: f64, work: f64, dn: f64, speed: f64, now: Time) -> Self {
        let exec = work / speed;
        match target {
            Target::Edge => {
                // start = free.max(now) == now; end = start + work/speed.
                let end = now + Time::new(exec);
                Forecast {
                    up_end: now,
                    exec_end: end,
                    completion: end,
                    has_up: false,
                    has_dn: false,
                }
            }
            Target::Cloud(_) => {
                let has_up = up > 0.0;
                // up_start = max(now, now, now) == now either way.
                let up_end = now + Time::new(up);
                // exec_start = up_end.max(now).max(now): adding the
                // non-negative `up` to `now` can only round upward, so
                // up_end >= now and the maxes return up_end bitwise.
                let exec_end = up_end + Time::new(exec);
                let has_dn = dn > 0.0;
                // dn_start = exec_end.max(now).max(now) == exec_end.
                let completion = exec_end + Time::new(dn);
                Forecast {
                    up_end,
                    exec_end,
                    completion,
                    has_up,
                    has_dn,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Instance;
    use crate::job::JobId;
    use crate::spec::{CloudId, EdgeId};
    use crate::state::{JobArena, JobState};

    /// Every job released with no progress, on edge speed 0.5 and two
    /// unit-speed clouds.
    fn fixture(jobs: Vec<Job>) -> (Instance, JobArena) {
        let spec = PlatformSpec::builder()
            .edges(vec![0.5])
            .cloud_pool(2)
            .build();
        let inst = Instance::new(spec, jobs).unwrap();
        let released = JobState {
            released: true,
            ..JobState::default()
        };
        let arena = JobArena::from_states(&inst, &vec![released; inst.num_jobs()]);
        (inst, arena)
    }

    /// Forecast completion of job `i` on `target` (volumes by the arena's
    /// keep-or-restart rule).
    fn completion(
        proj: &Projection,
        inst: &Instance,
        arena: &JobArena,
        i: usize,
        t: Target,
    ) -> Time {
        let job = inst.job(JobId(i));
        proj.completion(job, arena.volumes_on(i, job, t), t, &inst.spec, proj.floor)
    }

    fn place(
        proj: &mut Projection,
        inst: &Instance,
        arena: &JobArena,
        i: usize,
        t: Target,
    ) -> Time {
        let job = inst.job(JobId(i));
        let now = proj.floor;
        proj.place(job, arena.volumes_on(i, job, t), t, &inst.spec, now)
    }

    #[test]
    fn single_job_forecasts() {
        let (inst, arena) = fixture(vec![Job::new(EdgeId(0), 0.0, 2.0, 1.0, 1.0)]);
        let proj = Projection::new(&inst.spec, Time::ZERO);
        // Edge: 2 / 0.5 = 4. Cloud: 1 + 2 + 1 = 4.
        assert_eq!(
            completion(&proj, &inst, &arena, 0, Target::Edge),
            Time::new(4.0)
        );
        assert_eq!(
            completion(&proj, &inst, &arena, 0, Target::Cloud(CloudId(0))),
            Time::new(4.0)
        );
    }

    #[test]
    fn placement_advances_profiles() {
        let (inst, arena) = fixture(vec![
            Job::new(EdgeId(0), 0.0, 2.0, 1.0, 1.0),
            Job::new(EdgeId(0), 0.0, 2.0, 1.0, 1.0),
        ]);
        let mut proj = Projection::new(&inst.spec, Time::ZERO);
        let c0 = place(&mut proj, &inst, &arena, 0, Target::Cloud(CloudId(0)));
        assert_eq!(c0, Time::new(4.0));
        // Second job on the same cloud: uplink waits for EdgeOut until 1,
        // up [1,2), exec waits for cloud CPU until 3, exec [3,5), dn [5,6).
        let c1 = completion(&proj, &inst, &arena, 1, Target::Cloud(CloudId(0)));
        assert_eq!(c1, Time::new(6.0));
        // On the other cloud processor: up [1,2) (EdgeOut), exec [2,4),
        // dn [4,5) (EdgeIn free at 4 from J1's downlink... J1 dn ends 4).
        let c1b = completion(&proj, &inst, &arena, 1, Target::Cloud(CloudId(1)));
        assert_eq!(c1b, Time::new(5.0));
        // The edge is still free: 2/0.5 = 4, earlier than cloud 1's 5.
        let c1e = completion(&proj, &inst, &arena, 1, Target::Edge);
        assert_eq!(c1e, Time::new(4.0));
    }

    #[test]
    fn progress_kept_on_committed_target_only() {
        let (inst, mut arena) = fixture(vec![Job::new(EdgeId(0), 0.0, 4.0, 2.0, 2.0)]);
        arena.committed[0] = Some(Target::Cloud(CloudId(0)));
        arena.up_done[0] = 1.5;
        let proj = Projection::new(&inst.spec, Time::new(10.0));
        // Same cloud: 0.5 up + 4 work + 2 dn = 6.5 after now.
        assert_eq!(
            completion(&proj, &inst, &arena, 0, Target::Cloud(CloudId(0))),
            Time::new(16.5)
        );
        // Other cloud: full 2 + 4 + 2 = 8.
        assert_eq!(
            completion(&proj, &inst, &arena, 0, Target::Cloud(CloudId(1))),
            Time::new(18.0)
        );
    }

    #[test]
    fn zero_comm_volumes_skip_ports() {
        let (inst, arena) = fixture(vec![
            Job::new(EdgeId(0), 0.0, 2.0, 5.0, 0.0), // holds EdgeOut for 5
            Job::new(EdgeId(0), 0.0, 2.0, 0.0, 0.0), // no uplink at all
        ]);
        let mut proj = Projection::new(&inst.spec, Time::ZERO);
        place(&mut proj, &inst, &arena, 0, Target::Cloud(CloudId(0)));
        // J2 has up = 0: it does not wait for the busy EdgeOut port; it
        // only waits for the cloud CPU (busy until 7).
        let c = completion(&proj, &inst, &arena, 1, Target::Cloud(CloudId(0)));
        assert_eq!(c, Time::new(9.0));
        let c2 = completion(&proj, &inst, &arena, 1, Target::Cloud(CloudId(1)));
        assert_eq!(c2, Time::new(2.0));
    }

    mod pristine {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// [`Forecast::pristine`] must be bit-identical to
            /// [`Projection::forecast`] on a freshly reset projection,
            /// across zero and positive communication volumes, committed
            /// and fresh placements, both target kinds, and flat as well
            /// as continuum (path-priced) platforms — callers hand
            /// `pristine` the *path-scaled* communication durations.
            #[test]
            fn pristine_matches_forecast(
                work in 0.0f64..50.0,
                up in prop_oneof![Just(0.0f64), 1e-12f64..20.0],
                dn in prop_oneof![Just(0.0f64), 1e-12f64..20.0],
                done in proptest::collection::vec(0.0f64..1.0, 3),
                committed in 0usize..4,
                target_pick in 0usize..3,
                tiered in any::<bool>(),
                now in 0.0f64..1e6,
            ) {
                let spec = if tiered {
                    PlatformSpec::builder()
                        .edge(0.7)
                        .tier(0.5, 0.75)
                        .cloud(1.0)
                        .tier(1.5, 2.0)
                        .cloud(1.0)
                        .build()
                } else {
                    PlatformSpec::builder().edge(0.7).cloud_pool(2).build()
                };
                let job = Job::new(EdgeId(0), 0.0, work, up, dn);
                let mut arena = JobArena::new();
                arena.push(
                    JobState {
                        released: true,
                        up_done: done[0] * up,
                        work_done: done[1] * work,
                        dn_done: done[2] * dn,
                        committed: match committed {
                            0 => None,
                            1 => Some(Target::Edge),
                            c => Some(Target::Cloud(CloudId(c - 2))),
                        },
                        ..JobState::default()
                    },
                    job.min_time(&spec),
                );
                let target = match target_pick {
                    0 => Target::Edge,
                    t => Target::Cloud(CloudId(t - 1)),
                };
                let now = Time::new(now);
                let proj = Projection::new(&spec, now);
                let vols = arena.volumes_on(0, &job, target);
                let reference = proj.forecast(&job, vols, target, &spec, now);
                let (u, w, d) = vols;
                let (u, d, speed) = match target {
                    Target::Edge => (0.0, 0.0, spec.edge_speed(job.origin)),
                    Target::Cloud(k) => (
                        u * spec.path_up(k),
                        d * spec.path_dn(k),
                        spec.cloud_speed(k),
                    ),
                };
                let fast = Forecast::pristine(target, u, w, d, speed, now);
                prop_assert_eq!(fast, reference);
            }
        }
    }
}
