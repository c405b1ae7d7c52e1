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
use crate::job::{Job, JobId};
use crate::resource::{ResourceId, ResourceMap};
use crate::spec::PlatformSpec;
use crate::state::JobState;
use crate::view::SimView;
use mmsec_sim::Time;

/// Remaining volumes of a job if placed on `target`, accounting for the
/// loss of progress when `target` differs from the committed resource.
fn volumes(st: &JobState, job: &Job, target: Target) -> (f64, f64, f64) {
    let keep = st.committed == Some(target);
    match target {
        Target::Edge => {
            let w = if keep {
                st.remaining_work(job)
            } else {
                job.work
            };
            (0.0, w, 0.0)
        }
        Target::Cloud(_) => {
            if keep {
                (
                    st.remaining_up(job),
                    st.remaining_work(job),
                    st.remaining_dn(job),
                )
            } else {
                (job.up, job.work, job.dn)
            }
        }
    }
}

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

    /// Forecast completion time of `job` (state `st`) if placed next on
    /// `target`, *without* reserving the resources.
    pub fn completion(
        &self,
        job: &Job,
        st: &JobState,
        target: Target,
        spec: &PlatformSpec,
        now: Time,
    ) -> Time {
        self.forecast(job, st, target, spec, now).completion
    }

    /// Forecast and reserve: advances the profiles of every resource the
    /// job would use. Returns the forecast completion time.
    pub fn place(
        &mut self,
        job: &Job,
        st: &JobState,
        target: Target,
        spec: &PlatformSpec,
        now: Time,
    ) -> Time {
        let f = self.forecast(job, st, target, spec, now);
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

    /// Picks the target (edge or any cloud processor) with the earliest
    /// forecast completion; ties prefer the edge, then lower cloud ids
    /// (deterministic).
    pub fn best_target(
        &self,
        job: &Job,
        st: &JobState,
        spec: &PlatformSpec,
        now: Time,
    ) -> (Target, Time) {
        let mut best = (
            Target::Edge,
            self.completion(job, st, Target::Edge, spec, now),
        );
        for k in spec.clouds() {
            let t = Target::Cloud(k);
            let c = self.completion(job, st, t, spec, now);
            if c < best.1 {
                best = (t, c);
            }
        }
        best
    }

    /// Raw forecast of one placement: the phase-end instants and which
    /// communication phases exist. Exposed so decision rounds can reuse
    /// the winning candidate's forecast at claim time instead of
    /// recomputing it.
    pub fn forecast(
        &self,
        job: &Job,
        st: &JobState,
        target: Target,
        spec: &PlatformSpec,
        now: Time,
    ) -> Forecast {
        let (up, work, dn) = volumes(st, job, target);
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

/// Forecast completion times for `order` (a priority-ordered list of
/// pending jobs with chosen targets); convenience used by tests and by the
/// SSF-EDF feasibility check.
pub fn project_sequence(view: &SimView<'_>, order: &[(JobId, Target)]) -> Vec<(JobId, Time)> {
    let mut proj = Projection::from_view(view);
    order
        .iter()
        .map(|&(id, target)| {
            let st = view.state(id);
            let c = proj.place(view.job(id), &st, target, view.spec(), view.now);
            (id, c)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Instance;
    use crate::spec::{CloudId, EdgeId};
    use crate::state::JobArena;
    use crate::view::PendingSet;

    fn view_fixture(jobs: Vec<Job>) -> (Instance, Vec<JobState>) {
        let spec = PlatformSpec::builder()
            .edges(vec![0.5])
            .cloud_pool(2)
            .build();
        let inst = Instance::new(spec, jobs).unwrap();
        let mut states = vec![JobState::default(); inst.num_jobs()];
        for s in &mut states {
            s.released = true;
        }
        (inst, states)
    }

    #[test]
    fn single_job_forecasts() {
        let (inst, states) = view_fixture(vec![Job::new(EdgeId(0), 0.0, 2.0, 1.0, 1.0)]);
        let arena = JobArena::from_states(&inst, &states);
        let pending = PendingSet::from_states(&inst, &states);
        let view = SimView::new(&inst, Time::ZERO, &arena, &pending);
        let proj = Projection::from_view(&view);
        let job = inst.job(JobId(0));
        // Edge: 2 / 0.5 = 4. Cloud: 1 + 2 + 1 = 4.
        assert_eq!(
            proj.completion(job, &states[0], Target::Edge, view.spec(), view.now),
            Time::new(4.0)
        );
        assert_eq!(
            proj.completion(
                job,
                &states[0],
                Target::Cloud(CloudId(0)),
                view.spec(),
                view.now
            ),
            Time::new(4.0)
        );
        // Tie prefers the edge.
        let (t, c) = proj.best_target(job, &states[0], view.spec(), view.now);
        assert_eq!(t, Target::Edge);
        assert_eq!(c, Time::new(4.0));
    }

    #[test]
    fn placement_advances_profiles() {
        let (inst, states) = view_fixture(vec![
            Job::new(EdgeId(0), 0.0, 2.0, 1.0, 1.0),
            Job::new(EdgeId(0), 0.0, 2.0, 1.0, 1.0),
        ]);
        let arena = JobArena::from_states(&inst, &states);
        let pending = PendingSet::from_states(&inst, &states);
        let view = SimView::new(&inst, Time::ZERO, &arena, &pending);
        let mut proj = Projection::from_view(&view);
        let spec = view.spec();
        let c0 = proj.place(
            inst.job(JobId(0)),
            &states[0],
            Target::Cloud(CloudId(0)),
            spec,
            view.now,
        );
        assert_eq!(c0, Time::new(4.0));
        // Second job on the same cloud: uplink waits for EdgeOut until 1,
        // up [1,2), exec waits for cloud CPU until 3, exec [3,5), dn [5,6).
        let c1 = proj.completion(
            inst.job(JobId(1)),
            &states[1],
            Target::Cloud(CloudId(0)),
            spec,
            view.now,
        );
        assert_eq!(c1, Time::new(6.0));
        // On the other cloud processor: up [1,2) (EdgeOut), exec [2,4),
        // dn [4,5) (EdgeIn free at 4 from J1's downlink... J1 dn ends 4).
        let c1b = proj.completion(
            inst.job(JobId(1)),
            &states[1],
            Target::Cloud(CloudId(1)),
            spec,
            view.now,
        );
        assert_eq!(c1b, Time::new(5.0));
        // best_target picks the edge (free: 2/0.5 = 4) over cloud 1 (5).
        let (t, c) = proj.best_target(inst.job(JobId(1)), &states[1], spec, view.now);
        assert_eq!(t, Target::Edge);
        assert_eq!(c, Time::new(4.0));
    }

    #[test]
    fn progress_kept_on_committed_target_only() {
        let (inst, mut states) = view_fixture(vec![Job::new(EdgeId(0), 0.0, 4.0, 2.0, 2.0)]);
        states[0].committed = Some(Target::Cloud(CloudId(0)));
        states[0].up_done = 1.5;
        let arena = JobArena::from_states(&inst, &states);
        let pending = PendingSet::from_states(&inst, &states);
        let view = SimView::new(&inst, Time::new(10.0), &arena, &pending);
        let proj = Projection::from_view(&view);
        let job = inst.job(JobId(0));
        // Same cloud: 0.5 up + 4 work + 2 dn = 6.5 after now.
        assert_eq!(
            proj.completion(
                job,
                &states[0],
                Target::Cloud(CloudId(0)),
                view.spec(),
                view.now
            ),
            Time::new(16.5)
        );
        // Other cloud: full 2 + 4 + 2 = 8.
        assert_eq!(
            proj.completion(
                job,
                &states[0],
                Target::Cloud(CloudId(1)),
                view.spec(),
                view.now
            ),
            Time::new(18.0)
        );
    }

    #[test]
    fn zero_comm_volumes_skip_ports() {
        let (inst, states) = view_fixture(vec![
            Job::new(EdgeId(0), 0.0, 2.0, 5.0, 0.0), // holds EdgeOut for 5
            Job::new(EdgeId(0), 0.0, 2.0, 0.0, 0.0), // no uplink at all
        ]);
        let arena = JobArena::from_states(&inst, &states);
        let pending = PendingSet::from_states(&inst, &states);
        let view = SimView::new(&inst, Time::ZERO, &arena, &pending);
        let mut proj = Projection::from_view(&view);
        proj.place(
            inst.job(JobId(0)),
            &states[0],
            Target::Cloud(CloudId(0)),
            view.spec(),
            view.now,
        );
        // J2 has up = 0: it does not wait for the busy EdgeOut port; it
        // only waits for the cloud CPU (busy until 7).
        let c = proj.completion(
            inst.job(JobId(1)),
            &states[1],
            Target::Cloud(CloudId(0)),
            view.spec(),
            view.now,
        );
        assert_eq!(c, Time::new(9.0));
        let c2 = proj.completion(
            inst.job(JobId(1)),
            &states[1],
            Target::Cloud(CloudId(1)),
            view.spec(),
            view.now,
        );
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
                let mut st = JobState {
                    released: true,
                    up_done: done[0] * up,
                    work_done: done[1] * work,
                    dn_done: done[2] * dn,
                    ..JobState::default()
                };
                st.committed = match committed {
                    0 => None,
                    1 => Some(Target::Edge),
                    c => Some(Target::Cloud(CloudId(c - 2))),
                };
                let target = match target_pick {
                    0 => Target::Edge,
                    t => Target::Cloud(CloudId(t - 1)),
                };
                let now = Time::new(now);
                let proj = Projection::new(&spec, now);
                let reference = proj.forecast(&job, &st, target, &spec, now);
                let (u, w, d) = volumes(&st, &job, target);
                let (u, d, speed) = match target {
                    Target::Edge => (u, d, spec.edge_speed(job.origin)),
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

    #[test]
    fn project_sequence_orders_matter() {
        let (inst, states) = view_fixture(vec![
            Job::new(EdgeId(0), 0.0, 1.0, 0.0, 0.0),
            Job::new(EdgeId(0), 0.0, 10.0, 0.0, 0.0),
        ]);
        let arena = JobArena::from_states(&inst, &states);
        let pending = PendingSet::from_states(&inst, &states);
        let view = SimView::new(&inst, Time::ZERO, &arena, &pending);
        // Both on the edge CPU, short first.
        let completions =
            project_sequence(&view, &[(JobId(0), Target::Edge), (JobId(1), Target::Edge)]);
        assert_eq!(completions[0].1, Time::new(2.0));
        assert_eq!(completions[1].1, Time::new(22.0));
        // Long first.
        let completions =
            project_sequence(&view, &[(JobId(1), Target::Edge), (JobId(0), Target::Edge)]);
        assert_eq!(completions[0].1, Time::new(20.0));
        assert_eq!(completions[1].1, Time::new(22.0));
    }
}
