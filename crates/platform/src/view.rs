//! Scheduler-facing view of a running simulation.
//!
//! Two pieces hoisted out of the engine's hot path:
//!
//! * [`PendingSet`] — the released-but-unfinished jobs, kept **sorted by
//!   (release, id)** and updated incrementally on release/completion
//!   events. Policies iterate it instead of rescanning every job's state
//!   at every event (the per-event O(n) scan the decision core used to
//!   pay in each policy).
//! * [`SimView`] — the read-only view handed to
//!   [`crate::engine::OnlineScheduler::decide`]: the instance, the current
//!   time, the per-job progress ([`JobArena`], its only copy), the pending
//!   set, and the engine's [`PlatformState`], plus the
//!   deadline/remaining-time-per-target helpers that every heuristic of
//!   paper §V builds on. There is one constructor, [`SimView::new`]; an
//!   ad-hoc view (tests, tools) wraps the instance's spec in
//!   [`PlatformState::new`].

use crate::activity::Target;
use crate::instance::Instance;
use crate::job::{Job, JobId};
use crate::spec::{CloudId, EdgeId, PlatformSpec};
use crate::state::{JobArena, JobState, PlatformState};
use mmsec_sim::Time;

/// Instantaneous unit/link availability under fault injection.
///
/// The engine's [`PlatformState`] owns one and flips flags as
/// `UnitDown`/`UnitUp`/`LinkChange` events fire; policies read it through
/// the [`SimView`] accessors ([`SimView::edge_available`],
/// [`SimView::cloud_available`], [`SimView::link_factor`],
/// [`SimView::target_available`]) so they can skip down units when
/// placing. On a static platform ([`PlatformState::overlay`] is `None`)
/// every unit reports up.
#[derive(Clone, Debug, PartialEq)]
pub struct Availability {
    /// Per-edge up flag, indexed by [`EdgeId`].
    pub edge_up: Vec<bool>,
    /// Per-cloud up flag, indexed by [`CloudId`].
    pub cloud_up: Vec<bool>,
    /// Per-edge link capacity factor (`1.0` healthy, `0.0` outage).
    pub link_factor: Vec<f64>,
}

impl Availability {
    /// Everything up on a `num_edge` × `num_cloud` platform.
    pub fn all_up(num_edge: usize, num_cloud: usize) -> Self {
        Availability {
            edge_up: vec![true; num_edge],
            cloud_up: vec![true; num_cloud],
            link_factor: vec![1.0; num_edge],
        }
    }
}

/// Released, unfinished jobs, kept sorted by `(release, id)`.
///
/// The engine owns one and maintains it incrementally: a job is inserted
/// when its release event fires and removed when it completes. Between
/// those events membership never changes, so policies get an O(pending)
/// iteration per decision instead of an O(n) rescan of all job states.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PendingSet {
    /// Sorted ascending; `Time` is the job's release date.
    entries: Vec<(Time, JobId)>,
}

impl PendingSet {
    /// An empty set.
    pub fn new() -> Self {
        PendingSet::default()
    }

    /// Brute-force construction from a full state scan — for building
    /// ad-hoc views in tests and tools; the engine never calls this in
    /// its event loop.
    pub fn from_states(instance: &Instance, jobs: &[JobState]) -> Self {
        let mut set = PendingSet::new();
        for (i, st) in jobs.iter().enumerate() {
            if st.active() {
                set.insert(instance.job(JobId(i)).release, JobId(i));
            }
        }
        set
    }

    /// Inserts a job (keyed by its release date). No-op if already present.
    pub fn insert(&mut self, release: Time, id: JobId) {
        let key = (release, id);
        if let Err(pos) = self.entries.binary_search(&key) {
            self.entries.insert(pos, key);
        }
    }

    /// Removes a job (keyed by its release date). No-op if absent.
    pub fn remove(&mut self, release: Time, id: JobId) {
        if let Ok(pos) = self.entries.binary_search(&(release, id)) {
            self.entries.remove(pos);
        }
    }

    /// Number of pending jobs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no job is pending.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Pending jobs in `(release, id)` order.
    pub fn iter(&self) -> impl Iterator<Item = JobId> + '_ {
        self.entries.iter().map(|&(_, id)| id)
    }
}

/// Read-only view handed to [`crate::engine::OnlineScheduler::decide`].
pub struct SimView<'a> {
    /// The instance being simulated (its jobs; the platform is read from
    /// [`SimView::spec`], which tracks every committed mutation).
    instance: &'a Instance,
    /// Current virtual time.
    pub now: Time,
    /// Per-job dynamic state (struct-of-arrays), indexed by [`JobId`].
    pub jobs: &'a JobArena,
    /// Released, unfinished jobs (incrementally maintained by the engine).
    pub pending: &'a PendingSet,
    /// The composed availability overlay of `platform`; `None` (the
    /// static fast path) means everything is up.
    availability: Option<&'a Availability>,
    /// The versioned platform runtime.
    platform: &'a PlatformState,
}

impl<'a> SimView<'a> {
    /// Builds a view of `platform` at time `now`. The view reports the
    /// platform's current spec, its composed availability overlay, and its
    /// [version](SimView::platform_version).
    pub fn new(
        instance: &'a Instance,
        now: Time,
        jobs: &'a JobArena,
        pending: &'a PendingSet,
        platform: &'a PlatformState,
    ) -> Self {
        SimView {
            instance,
            now,
            jobs,
            pending,
            availability: platform.overlay(),
            platform,
        }
    }

    /// True when edge `j`'s computing unit is currently up.
    pub fn edge_available(&self, j: EdgeId) -> bool {
        self.availability.map_or(true, |a| a.edge_up[j.0])
    }

    /// True when cloud processor `k` is currently up.
    pub fn cloud_available(&self, k: CloudId) -> bool {
        self.availability.map_or(true, |a| a.cloud_up[k.0])
    }

    /// Current capacity factor of edge `j`'s communication link
    /// (`1.0` healthy, `0.0` outage).
    pub fn link_factor(&self, j: EdgeId) -> f64 {
        self.availability.map_or(1.0, |a| a.link_factor[j.0])
    }

    /// True when `target` can currently accept work from a job originating
    /// at `origin`: the edge target requires the origin's unit to be up,
    /// a cloud target requires that processor to be up. (A down origin
    /// edge or a link outage merely *pauses* cloud-bound communication —
    /// it does not invalidate the placement — so neither is checked here.)
    pub fn target_available(&self, origin: EdgeId, target: Target) -> bool {
        match target {
            Target::Edge => self.edge_available(origin),
            Target::Cloud(k) => self.cloud_available(k),
        }
    }

    /// The platform version this view describes: bumped by every
    /// committed permanent platform mutation. Policies caching
    /// platform-shaped state (speed classes, projections, deadline tables)
    /// compare this against the version they built for and rebuild on
    /// mismatch.
    pub fn platform_version(&self) -> u64 {
        self.platform.version()
    }

    /// The platform, as of this view's [version](SimView::platform_version).
    pub fn spec(&self) -> &'a PlatformSpec {
        self.platform.spec()
    }

    /// The static description of job `id`.
    pub fn job(&self, id: JobId) -> &'a Job {
        self.instance.job(id)
    }

    /// Jobs that are released and unfinished, in `(release, id)` order
    /// (an O(pending) walk of the incrementally maintained [`PendingSet`],
    /// not a state rescan).
    pub fn pending_jobs(&self) -> impl Iterator<Item = JobId> + 'a {
        self.pending.iter()
    }

    /// Number of pending jobs.
    pub fn num_pending(&self) -> usize {
        self.pending.len()
    }

    /// Stretch job `id` would incur if it completed at time `c`.
    pub fn stretch_if_completed_at(&self, id: JobId, c: Time) -> f64 {
        (c - self.job(id).release).seconds() / self.jobs.min_time[id.0]
    }

    /// Best dedicated-platform time `min(t^e_i, t^c_i)` of job `id` — the
    /// stretch denominator (read from the arena cache, which the engine
    /// keeps coherent with [`SimView::spec`]).
    pub fn min_time(&self, id: JobId) -> f64 {
        self.jobs.min_time[id.0]
    }

    /// Deadline of job `id` under target stretch `s`:
    /// `d_i = r_i + s · min(t^e_i, t^c_i)` (paper §V-D).
    pub fn deadline_under_stretch(&self, id: JobId, s: f64) -> Time {
        let job = self.job(id);
        job.release + Time::new(s * self.jobs.min_time[id.0])
    }

    /// Contention-free remaining duration of job `id` on `target`,
    /// accounting for the from-scratch reset when `target` differs from
    /// the committed one.
    pub fn duration_if_placed(&self, id: JobId, target: Target) -> f64 {
        self.jobs
            .duration_if_placed(id.0, self.job(id), target, self.spec())
    }

    /// Smallest contention-free remaining duration of job `id` over every
    /// target (edge + all live cloud processors). A removed cloud keeps
    /// its id and last speed in the spec but never runs work again, so it
    /// prices nothing.
    pub fn best_duration(&self, id: JobId) -> f64 {
        let mut best = self.duration_if_placed(id, Target::Edge);
        for k in self.spec().clouds() {
            if self.platform.cloud_live(k) {
                best = best.min(self.duration_if_placed(id, Target::Cloud(k)));
            }
        }
        best
    }

    /// Stretch job `id` is already forced to at `now`: even if it finished
    /// as early as physically possible (alone, on its best target), its
    /// stretch would be at least this.
    pub fn forced_stretch(&self, id: JobId) -> f64 {
        let job = self.job(id);
        (self.now + Time::new(self.best_duration(id)) - job.release).seconds()
            / self.jobs.min_time[id.0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CloudId, EdgeId};

    fn fixture() -> (Instance, Vec<JobState>) {
        let spec = PlatformSpec::builder()
            .edges(vec![0.5])
            .cloud_pool(2)
            .build();
        // min_time = min(4/0.5, 2+4+1) = min(8, 7) = 7.
        let job = Job::new(EdgeId(0), 1.0, 4.0, 2.0, 1.0);
        let inst = Instance::new(spec, vec![job]).unwrap();
        let mut states = vec![JobState::default()];
        states[0].released = true;
        (inst, states)
    }

    #[test]
    fn pending_set_insert_remove_sorted() {
        let mut set = PendingSet::new();
        set.insert(Time::new(2.0), JobId(5));
        set.insert(Time::new(1.0), JobId(9));
        set.insert(Time::new(2.0), JobId(1));
        assert_eq!(
            set.iter().collect::<Vec<_>>(),
            vec![JobId(9), JobId(1), JobId(5)]
        );
        assert_eq!(set.len(), 3);
        // Double insert is a no-op.
        set.insert(Time::new(1.0), JobId(9));
        assert_eq!(set.len(), 3);
        set.remove(Time::new(2.0), JobId(1));
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![JobId(9), JobId(5)]);
        // Removing an absent entry is a no-op.
        set.remove(Time::new(7.0), JobId(3));
        assert_eq!(set.len(), 2);
        // Equality is membership: the same entries, however they got there.
        let mut other = PendingSet::new();
        other.insert(Time::new(2.0), JobId(5));
        other.insert(Time::new(1.0), JobId(9));
        assert_eq!(set, other);
        set.remove(Time::new(1.0), JobId(9));
        set.remove(Time::new(2.0), JobId(5));
        assert!(set.is_empty());
    }

    #[test]
    fn from_states_matches_active_scan() {
        let spec = PlatformSpec::builder()
            .edges(vec![0.5])
            .cloud_pool(1)
            .build();
        let jobs = vec![
            Job::new(EdgeId(0), 3.0, 1.0, 0.0, 0.0),
            Job::new(EdgeId(0), 1.0, 1.0, 0.0, 0.0),
            Job::new(EdgeId(0), 2.0, 1.0, 0.0, 0.0),
        ];
        let inst = Instance::new(spec, jobs).unwrap();
        let mut states = vec![JobState::default(); 3];
        states[0].released = true;
        states[1].released = true;
        states[2].released = true;
        states[2].finished = true; // completed: not pending
        let set = PendingSet::from_states(&inst, &states);
        // Release order: job 1 (r=1) before job 0 (r=3).
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![JobId(1), JobId(0)]);
        // The arena built from the same records agrees on who is active.
        let arena = JobArena::from_states(&inst, &states);
        let active: Vec<usize> = (0..arena.len()).filter(|&i| arena.active(i)).collect();
        assert_eq!(active, vec![0, 1]);
    }

    #[test]
    fn view_helpers() {
        let (inst, states) = fixture();
        let arena = JobArena::from_states(&inst, &states);
        let pending = PendingSet::from_states(&inst, &states);
        let platform = PlatformState::new(inst.spec.clone());
        let view = SimView::new(&inst, Time::new(2.0), &arena, &pending, &platform);
        assert_eq!(view.num_pending(), 1);
        assert_eq!(view.pending_jobs().collect::<Vec<_>>(), vec![JobId(0)]);
        // min_time = min(8, 7) = 7; completed at 8 → stretch (8-1)/7 = 1.
        assert!((view.stretch_if_completed_at(JobId(0), Time::new(8.0)) - 1.0).abs() < 1e-12);
        assert!((view.min_time(JobId(0)) - 7.0).abs() < 1e-12);
        // Deadline under stretch 2: r + 2·7 = 15.
        assert_eq!(view.deadline_under_stretch(JobId(0), 2.0), Time::new(15.0));
    }

    #[test]
    fn availability_accessors_default_to_up() {
        let (inst, states) = fixture();
        let arena = JobArena::from_states(&inst, &states);
        let pending = PendingSet::from_states(&inst, &states);
        let mut platform = PlatformState::new(inst.spec.clone());
        let view = SimView::new(&inst, Time::ZERO, &arena, &pending, &platform);
        assert!(view.edge_available(EdgeId(0)));
        assert!(view.cloud_available(CloudId(1)));
        assert_eq!(view.link_factor(EdgeId(0)), 1.0);

        platform.mark_dynamic();
        platform.fault_cloud_down(CloudId(0));
        platform.fault_edge_down(EdgeId(0));
        assert!(platform.fault_set_link(EdgeId(0), 0.25));
        let view = SimView::new(&inst, Time::ZERO, &arena, &pending, &platform);
        assert!(!view.edge_available(EdgeId(0)));
        assert!(!view.cloud_available(CloudId(0)));
        assert!(view.cloud_available(CloudId(1)));
        assert!(!view.target_available(EdgeId(0), Target::Edge));
        assert!(!view.target_available(EdgeId(0), Target::Cloud(CloudId(0))));
        assert!(view.target_available(EdgeId(0), Target::Cloud(CloudId(1))));
        assert_eq!(view.link_factor(EdgeId(0)), 0.25);
    }

    #[test]
    fn duration_helpers() {
        let (inst, mut states) = fixture();
        states[0].committed = Some(Target::Cloud(CloudId(0)));
        states[0].up_done = 1.5;
        let arena = JobArena::from_states(&inst, &states);
        let pending = PendingSet::from_states(&inst, &states);
        let platform = PlatformState::new(inst.spec.clone());
        let view = SimView::new(&inst, Time::new(4.0), &arena, &pending, &platform);
        // Continue on cloud 0: 0.5 up + 4 work + 1 dn = 5.5.
        assert_eq!(
            view.duration_if_placed(JobId(0), Target::Cloud(CloudId(0))),
            5.5
        );
        // Fresh on cloud 1: 2 + 4 + 1 = 7; fresh on edge: 8.
        assert_eq!(
            view.duration_if_placed(JobId(0), Target::Cloud(CloudId(1))),
            7.0
        );
        assert_eq!(view.duration_if_placed(JobId(0), Target::Edge), 8.0);
        assert_eq!(view.best_duration(JobId(0)), 5.5);
        // Forced stretch at now=4: (4 + 5.5 − 1) / 7.
        assert!((view.forced_stretch(JobId(0)) - 8.5 / 7.0).abs() < 1e-12);
        // Remaining on edge: 4 work / 0.5 speed.
        assert_eq!(
            view.jobs
                .remaining_time_on(0, view.job(JobId(0)), Target::Edge, view.spec()),
            8.0
        );
    }

    #[test]
    fn removed_clouds_do_not_price_best_duration() {
        let (inst, states) = fixture();
        let arena = JobArena::from_states(&inst, &states);
        let pending = PendingSet::from_states(&inst, &states);
        let never = PlatformState::new(inst.spec.clone());
        let mut left = PlatformState::new(inst.spec.clone());
        // Fresh on the speed-4 cloud: 2 + 4/4 + 1 = 4, faster than 7.
        let fast = left.add_cloud(4.0).unwrap();
        left.remove_cloud(fast).unwrap();
        let now = Time::new(2.0);
        let twin = SimView::new(&inst, now, &arena, &pending, &never);
        let view = SimView::new(&inst, now, &arena, &pending, &left);
        assert_eq!(twin.best_duration(JobId(0)), 7.0);
        assert_eq!(view.best_duration(JobId(0)), twin.best_duration(JobId(0)));
        assert_eq!(
            view.forced_stretch(JobId(0)).to_bits(),
            twin.forced_stretch(JobId(0)).to_bits()
        );
    }
}
