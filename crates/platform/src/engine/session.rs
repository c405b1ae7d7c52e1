//! Resumable simulation sessions: the engine loop as a driver object.
//!
//! A [`Session`] owns every piece of engine state that the batch
//! `simulate*` entry points used to keep as locals — the event queue, the
//! per-job dynamic states, the pending set, the decision epoch, the
//! reusable buffers — so the simulation can be *paused and resumed*
//! between events, and jobs can be [`Session::submit`]ted while it runs.
//! The paper's online model (§III, §V) is a stream: jobs are revealed at
//! their release dates and the scheduler reacts. The session layer makes
//! that literal — the batch API ([`super::simulation::Simulation::run`])
//! is now a thin wrapper that submits everything up front and
//! [`Session::drain`]s.
//!
//! # Equivalence with batch runs
//!
//! A session fed each job at (or before) its release date takes the exact
//! decision points a batch run takes: the initial queue of a batch run
//! contains every release up front, so both runs split progress accrual
//! at the same instants and the schedules are **bit-identical** (the
//! `session_equivalence` proptest pins this across the policy registry
//! and fault plans). Pausing at other instants via [`Session::run_until`]
//! inserts extra decision points; schedules remain valid but are not
//! guaranteed bit-identical to a batch run.
//!
//! # Late submissions
//!
//! A job submitted with a release date in the past (relative to the
//! session's virtual clock) is admitted immediately: its release event
//! fires at the current virtual time, while its stretch keeps being
//! measured from the *declared* release date, exactly as a batch run
//! would have measured it.
//!
//! # Retiring finished jobs
//!
//! A session that runs indefinitely (a served lane) would otherwise hold
//! every job it ever admitted. [`Session::retire_finished`] drops them
//! all at an idle point — when every held job has finished — and keeps
//! the storage for the jobs to come. Public job ids keep counting: the
//! ids [`Session::submit`] returns, observer events and
//! [`SessionStats::submitted`] are offset by the number of retired jobs,
//! while the engine and the policy index the held jobs
//! densely from 0. Relative id order is unchanged, so every tie-break by
//! id is too, and a retiring session's completions are bit-identical to
//! a session that never retires (the `session_equivalence` proptest pins
//! this across the policy registry).

use crate::activity::{DirectiveBuffer, Phase, Target};
use crate::instance::{Instance, InstanceError};
use crate::job::{Job, JobId};
use crate::resource::{ResourceId, ResourceMap};
use crate::schedule::TraceBuilder;
use crate::spec::{CloudId, EdgeId};
use crate::state::{JobArena, JobState, PlatformError, PlatformMutation, PlatformState};
use crate::view::{PendingSet, SimView};
use std::borrow::Cow;
use std::time::{Duration, Instant};

use super::events::{
    self, obs_cloud, obs_phase, obs_unit, prime_faults, prime_queue, EngineEvent, RANK_RELEASE,
};
use super::grant::{self, greedy_allocate, Activation};
use super::outcome::{EngineError, RunOutcome, RunStats};
use super::{DecisionCadence, EngineOptions, OnlineScheduler};
use mmsec_faults::FaultPlan;
use mmsec_obs::{EnginePhase, Event as ObsEvent, Observer, PhaseProfiler, Unit};
use mmsec_sim::{EventQueue, Interval, Time};

/// Evaluates the event expression only when an observer is attached: an
/// unobserved session pays one branch per emission point and nothing else.
macro_rules! emit {
    ($s:expr, $ev:expr) => {
        if let Some(o) = $s.observer.as_deref_mut() {
            o.on_event(&$ev);
        }
    };
}

/// Policy storage: borrowed for embedders that drive a policy they keep
/// (the batch benches, the CLI), owned for self-contained sessions whose
/// policy must live and die with them (server shard lanes).
pub(crate) enum SchedSlot<'a> {
    /// The caller keeps the policy and lends it for the session's life.
    Borrowed(&'a mut dyn OnlineScheduler),
    /// The session owns the policy outright.
    Owned(Box<dyn OnlineScheduler + 'a>),
}

impl SchedSlot<'_> {
    #[inline]
    fn get(&mut self) -> &mut dyn OnlineScheduler {
        match self {
            SchedSlot::Borrowed(s) => &mut **s,
            SchedSlot::Owned(b) => b.as_mut(),
        }
    }

    #[inline]
    fn get_ref(&self) -> &dyn OnlineScheduler {
        match self {
            SchedSlot::Borrowed(s) => &**s,
            SchedSlot::Owned(b) => b.as_ref(),
        }
    }
}

/// Observer storage, mirroring [`SchedSlot`]: `as_deref_mut` keeps the
/// same shape `Option<&'a mut dyn Observer>` exposed, so every emission
/// site (and the `emit!` macro) is agnostic to ownership.
pub(crate) enum ObsSlot<'a> {
    /// No observer attached: emission points reduce to untaken branches.
    None,
    /// The caller keeps the observer and lends it for the session's life.
    Borrowed(&'a mut dyn Observer),
    /// The session owns the observer outright.
    Owned(Box<dyn Observer + 'a>),
}

impl ObsSlot<'_> {
    #[inline]
    fn as_deref_mut(&mut self) -> Option<&mut dyn Observer> {
        match self {
            ObsSlot::None => None,
            ObsSlot::Borrowed(o) => Some(&mut **o),
            ObsSlot::Owned(b) => Some(b.as_mut()),
        }
    }
}

/// What a bounded stepping call achieved (see [`Session::step`] and
/// [`Session::run_until`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionStatus {
    /// One engine step ran: events fired, a decision was taken (or
    /// skipped under gating), and virtual time advanced to the next
    /// event horizon.
    Advanced,
    /// The requested time bound capped the advance: virtual time sits at
    /// the bound, in-flight progress was accrued up to it, and the next
    /// engine event still lies in the future.
    Reached,
    /// Every submitted job has finished. The session is idle; submitting
    /// more work wakes it up.
    Done,
    /// Unfinished jobs exist but no activity was granted and no future
    /// event is queued — a batch run would fail with
    /// [`EngineError::Stalled`] here. A session reports it as a status
    /// because a later [`Session::submit`] can unblock the run.
    Blocked,
}

/// A point-in-time summary of a running session (see
/// [`Session::snapshot`]). Cheap to produce: no allocation.
#[derive(Clone, Copy, Debug)]
pub struct SessionStats {
    /// Current virtual time.
    pub now: Time,
    /// Jobs submitted so far (batch construction counts as submission;
    /// retired jobs count too).
    pub submitted: usize,
    /// Jobs that have completed.
    pub completed: usize,
    /// Jobs submitted but not yet finished (released or not).
    pub unfinished: usize,
    /// Jobs currently released and unfinished.
    pub pending: usize,
    /// Jobs holding a resource grant from the most recent engine step.
    pub running: usize,
    /// Maximum stretch over completed jobs (`0.0` before any completion).
    pub max_stretch: f64,
    /// Mean stretch over completed jobs (`0.0` before any completion).
    pub mean_stretch: f64,
    /// Engine counters (events, decides, skips, restarts, wall time so
    /// far).
    pub run: RunStats,
}

/// A resumable simulation: the engine loop, paused between events.
///
/// Build one through [`super::simulation::Simulation::session`]; drive it
/// with [`Session::submit`], [`Session::step`], [`Session::run_until`],
/// and [`Session::drain`]; read progress with [`Session::snapshot`], and
/// each finished job from the observer's
/// [`Completed`](mmsec_obs::Event::Completed) event; convert the finished
/// run into a [`RunOutcome`] with [`Session::into_outcome`].
pub struct Session<'a> {
    scheduler: SchedSlot<'a>,
    observer: ObsSlot<'a>,
    /// Phase-span telemetry sink. Like the observer, `None` means the
    /// instrumentation reduces to untaken branches: no clock is read.
    profiler: Option<&'a mut PhaseProfiler>,
    /// Wall time spent replaying fault events inside the current
    /// `fire_due_events` call; carved out of the event-pop span so the
    /// two phases never double-count.
    fault_span: Duration,
    /// Borrowed for batch runs; promoted to an owned clone on the first
    /// post-construction [`Session::submit`].
    instance: Cow<'a, Instance>,
    faults: Option<&'a FaultPlan>,
    opts: EngineOptions,
    gating: bool,
    started_wall: Instant,

    epoch: u64,
    decided_epoch: u64,
    unfinished: usize,
    /// Jobs dropped by [`Session::retire_finished`]: the offset between
    /// a held job's dense index and its public id.
    retired: usize,
    /// Per-job dynamic state, struct-of-arrays (see [`JobArena`]): the
    /// hot loops below index individual columns so each sweep touches
    /// contiguous memory.
    jobs: JobArena,
    queue: EventQueue<EngineEvent>,
    /// The owned, versioned platform runtime. All platform changes —
    /// permanent mutations ([`Session::add_edge`] and friends) and fault
    /// replay — flow through it; while it stays static the engine takes
    /// the exact frozen-instance fast path.
    platform: PlatformState,
    trace: TraceBuilder,
    stats: RunStats,
    now: Time,
    /// False until the first step: the virtual clock snaps to the
    /// earliest queued event then, so pre-start submissions can still
    /// move the start of time backwards.
    started: bool,
    /// The event cap is `limit_base + limit_extra`. The base is the
    /// submitted workload's budget ([`events::auto_event_limit`]),
    /// recomputed on submit; the extra is one event per capped pause and
    /// per platform mutation, kept apart so a submit cannot drop it.
    limit_base: u64,
    limit_extra: u64,

    // Run-long buffers, reused across events (see "Allocation
    // discipline" in the engine module docs).
    pending: PendingSet,
    buf: DirectiveBuffer,
    activations: Vec<Activation>,
    prev_activations: Vec<Activation>,
    blocked: ResourceMap<bool>,
    skip: Vec<bool>,
    seen: Vec<u64>,
    /// Cached `spec.has_unavailability()`, refreshed on platform
    /// mutations, so the per-event blocking pass skips the window scan
    /// on the (overwhelmingly common) window-free platforms.
    has_unavailability: bool,

    completed: usize,
    stretch_sum: f64,
    stretch_max: f64,
    /// Epoch at which the last [`SessionStatus::Blocked`] was observed:
    /// lets [`Session::run_until`] report Blocked again without burning
    /// an event on a decide that cannot have changed.
    blocked_epoch: Option<u64>,
    /// True right after a bound capped an advance at the current time:
    /// lets a repeated [`Session::run_until`] with the same bound return
    /// immediately instead of re-deciding.
    paused_at_bound: bool,
}

impl<'a> Session<'a> {
    pub(super) fn new(
        instance: Cow<'a, Instance>,
        mut scheduler: SchedSlot<'a>,
        opts: EngineOptions,
        faults: Option<&'a FaultPlan>,
        observer: ObsSlot<'a>,
        profiler: Option<&'a mut PhaseProfiler>,
    ) -> Self {
        let started_wall = Instant::now();
        let spec = &instance.spec;
        assert!(
            !spec.has_unavailability() || opts.allow_preemption,
            "cloud availability windows require preemption"
        );
        // A plan that injects nothing takes the exact fault-free code
        // path, so a zero-failure fault model is bit-identical to no
        // model at all.
        let faults = faults.filter(|p| !p.is_empty());
        if let Some(plan) = faults {
            // `>=`, not `==`: a plan may be compiled for a platform shape
            // the session only grows into through mutations. Fault events
            // for units that have not joined yet are dropped on replay.
            assert!(
                plan.num_edges() >= spec.num_edge(),
                "fault plan covers fewer edges than the platform"
            );
            assert!(
                plan.num_clouds() >= spec.num_cloud(),
                "fault plan covers fewer clouds than the platform"
            );
            assert!(opts.allow_preemption, "fault injection requires preemption");
            assert!(
                !opts.infinite_ports || spec.edges().all(|j| plan.link_windows(j.0).is_empty()),
                "link faults require the one-port model (infinite_ports = false)"
            );
        }
        let n = instance.num_jobs();
        let limit_base = workload_budget(&instance, faults);
        // Gating needs preemption (see "Decision-epoch gating" in the
        // engine module docs).
        let gating = opts.allow_preemption
            && scheduler.get_ref().cadence() == DecisionCadence::OnEpochChange;
        let mut queue = prime_queue(&instance);
        if let Some(plan) = faults {
            prime_faults(&mut queue, plan);
        }
        let mut platform = PlatformState::new(spec.clone());
        if faults.is_some() {
            // Fault replay needs the availability overlay from the start;
            // the platform stays at version 1 (faults are temporary).
            platform.mark_dynamic();
        }
        let now = queue.peek_time().unwrap_or(Time::ZERO);
        let blocked = ResourceMap::new(spec, false);
        let has_unavailability = spec.has_unavailability();
        let jobs = JobArena::fresh(&instance, spec);

        scheduler.get().on_start(&instance);
        let mut session = Session {
            scheduler,
            observer,
            profiler,
            fault_span: Duration::ZERO,
            instance,
            faults,
            opts,
            gating,
            started_wall,
            epoch: 1,
            decided_epoch: 0,
            unfinished: n,
            retired: 0,
            jobs,
            queue,
            platform,
            trace: TraceBuilder::new(n),
            stats: RunStats::default(),
            now,
            started: false,
            limit_base,
            limit_extra: 0,
            pending: PendingSet::new(),
            buf: DirectiveBuffer::new(),
            activations: Vec::new(),
            prev_activations: Vec::new(),
            blocked,
            skip: vec![false; n],
            seen: vec![0u64; n],
            has_unavailability,
            completed: 0,
            stretch_sum: 0.0,
            stretch_max: 0.0,
            blocked_epoch: None,
            paused_at_bound: false,
        };
        if let Some(p) = session.profiler.as_deref_mut() {
            p.set_policy(&session.scheduler.get_ref().name());
        }
        emit!(
            session,
            ObsEvent::RunStart {
                policy: session.scheduler.get_ref().name(),
                jobs: n,
                edges: session.instance.spec.num_edge(),
                clouds: session.instance.spec.num_cloud(),
            }
        );
        session
    }

    /// The instance as the session currently sees it: the jobs it holds,
    /// indexed densely from 0. It grows on submit and is emptied by
    /// [`Session::retire_finished`].
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// True when every submitted job has finished.
    pub fn is_idle(&self) -> bool {
        self.unfinished == 0
    }

    /// True once the virtual clock has started ticking (the first step
    /// ran). Before that, [`Session::now`] still reports the earliest
    /// queued event — pre-start submissions can move it backwards — so
    /// callers that stamp records with session time should not trust it
    /// until the session has started.
    pub fn started(&self) -> bool {
        self.started
    }

    /// The time of the earliest queued engine event, if any: the instant
    /// the virtual clock would snap to on the next step of an unstarted
    /// session, and a lower bound on the next state change of a started
    /// one that holds no activity in flight.
    pub fn next_event_time(&self) -> Option<Time> {
        self.queue.peek_time()
    }

    /// Submits a job to the running session and returns its public id
    /// (see "Retiring finished jobs" in the module docs).
    ///
    /// The job's release event is queued at its declared release date, or
    /// at the current virtual time when that date is already in the past
    /// (late submission — see the module docs). Fails if the origin edge
    /// does not exist on the platform.
    pub fn submit(&mut self, job: Job) -> Result<JobId, InstanceError> {
        // A tombstoned (removed) edge no longer exists as an origin: jobs
        // submitted for it are rejected exactly like an out-of-range one.
        if job.origin.0 >= self.platform.spec().num_edge() || !self.platform.edge_live(job.origin) {
            return Err(InstanceError::OriginOutOfRange {
                job: self.retired + self.instance.num_jobs(),
                origin: job.origin.0,
            });
        }
        let id = JobId(self.instance.num_jobs());
        self.instance.to_mut().jobs.push(job);
        self.jobs
            .push(JobState::default(), job.min_time(self.platform.spec()));
        self.skip.push(false);
        self.seen.push(0);
        self.trace.grow(1);
        self.unfinished += 1;
        let at = if self.started && job.release < self.now {
            self.now
        } else {
            job.release
        };
        self.queue.push(at, RANK_RELEASE, EngineEvent::Release(id));
        // The livelock budget scales with the submitted workload.
        self.limit_base = workload_budget(&self.instance, self.faults);
        self.paused_at_bound = false;
        emit!(
            self,
            ObsEvent::JobSubmitted {
                t: self.now,
                job: self.retired + id.0,
            }
        );
        Ok(JobId(self.retired + id.0))
    }

    /// Drops every job the session holds, if all of them have finished;
    /// otherwise does nothing. The next submitted job is held at index 0,
    /// and its public id continues after the last one (see "Retiring
    /// finished jobs" in the module docs).
    ///
    /// The job list, per-job state and schedule trace are emptied with
    /// their capacity kept, and the policy is told through
    /// [`OnlineScheduler::on_retire`]. The clock, the platform (version
    /// included), the event queue, the decision epochs, every counter
    /// [`Session::snapshot`] reports and the livelock cap are kept: each
    /// retired job's share of the cap moves into its run-long part.
    /// [`Session::into_outcome`] afterwards covers only the jobs
    /// submitted since the last retire.
    pub fn retire_finished(&mut self) {
        if self.unfinished > 0 || self.jobs.is_empty() {
            return;
        }
        // Nothing unfinished: nothing pending, and no release queued.
        debug_assert!(self.pending.is_empty());
        self.retired += self.jobs.len();
        self.instance.to_mut().jobs.clear();
        self.jobs.clear();
        self.skip.clear();
        self.seen.clear();
        self.activations.clear();
        self.prev_activations.clear();
        self.buf.clear();
        self.trace.clear();
        let base = workload_budget(&self.instance, self.faults);
        self.limit_extra += self.limit_base - base;
        self.limit_base = base;
        self.scheduler.get().on_retire(&self.instance);
    }

    /// The versioned platform runtime the session executes on: its
    /// current spec, composed availability, membership, and
    /// [version](PlatformState::version).
    pub fn platform(&self) -> &PlatformState {
        &self.platform
    }

    /// Applies one permanent platform mutation by value — the typed
    /// method forms ([`Session::add_edge`] and friends) are equivalent.
    /// Returns the new platform version.
    pub fn apply_platform(&mut self, m: PlatformMutation) -> Result<u64, PlatformError> {
        match m {
            PlatformMutation::AddEdge { speed } => {
                self.add_edge(speed).map(|_| self.platform.version())
            }
            PlatformMutation::RemoveEdge { edge } => self.remove_edge(edge),
            PlatformMutation::AddCloud { speed } => {
                self.add_cloud(speed).map(|_| self.platform.version())
            }
            PlatformMutation::RemoveCloud { cloud } => self.remove_cloud(cloud),
            PlatformMutation::SetLink { edge, factor } => self.set_link(edge, factor),
            PlatformMutation::SetEdgeSpeed { edge, speed } => self.set_edge_speed(edge, speed),
            PlatformMutation::SetCloudSpeed { cloud, speed } => self.set_cloud_speed(cloud, speed),
            PlatformMutation::SetHop { hop, up, dn } => self.set_hop(hop, up, dn),
        }
    }

    /// A new edge unit joins the platform (nominal link). Takes effect at
    /// the next step: the decision epoch is bumped, so gated policies
    /// re-decide against the grown platform. Returns the new unit's id.
    pub fn add_edge(&mut self, speed: f64) -> Result<EdgeId, PlatformError> {
        let id = self.platform.add_edge(speed)?;
        self.platform_changed("add-edge", Unit::Edge(id.0));
        Ok(id)
    }

    /// Edge `j` leaves the platform permanently (tombstoned: its id stays
    /// valid and it reports unavailable forever). Rejected while
    /// unfinished jobs originate there — those jobs could never complete
    /// (their uplink/downlink endpoints die with the unit). Returns the
    /// new platform version.
    pub fn remove_edge(&mut self, j: EdgeId) -> Result<u64, PlatformError> {
        let unfinished = self
            .instance
            .jobs
            .iter()
            .zip(&self.jobs.finished)
            .filter(|(job, &finished)| job.origin == j && !finished)
            .count();
        if unfinished > 0 {
            return Err(PlatformError::OriginInUse {
                edge: j.0,
                unfinished,
            });
        }
        let v = self.platform.remove_edge(j)?;
        self.platform_changed("remove-edge", Unit::Edge(j.0));
        Ok(v)
    }

    /// A new cloud processor joins the platform. Returns its id.
    pub fn add_cloud(&mut self, speed: f64) -> Result<CloudId, PlatformError> {
        let id = self.platform.add_cloud(speed)?;
        self.platform_changed("add-cloud", Unit::Cloud(id.0));
        Ok(id)
    }

    /// Cloud `k` leaves the platform permanently (tombstoned). Work in
    /// flight on the removed processor is lost, exactly as under a
    /// crash-down fault: affected jobs drop their commitment, wiped
    /// progress counts as a restart, and a `JobKilled` event is emitted.
    /// Returns the new platform version.
    pub fn remove_cloud(&mut self, k: CloudId) -> Result<u64, PlatformError> {
        let v = self.platform.remove_cloud(k)?;
        self.kill_work_on(Unit::Cloud(k.0));
        self.platform_changed("remove-cloud", Unit::Cloud(k.0));
        Ok(v)
    }

    /// Re-provisions edge `j`'s link to base capacity `factor` (composed
    /// multiplicatively with any fault window's factor). Returns the new
    /// platform version.
    pub fn set_link(&mut self, j: EdgeId, factor: f64) -> Result<u64, PlatformError> {
        let v = self.platform.set_link(j, factor)?;
        self.platform_changed("set-link", Unit::Edge(j.0));
        Ok(v)
    }

    /// Re-provisions edge `j` to a new speed. In-flight progress is kept:
    /// work is tracked in work units, so remaining compute simply
    /// proceeds at the new rate. Returns the new platform version.
    pub fn set_edge_speed(&mut self, j: EdgeId, speed: f64) -> Result<u64, PlatformError> {
        let v = self.platform.set_edge_speed(j, speed)?;
        self.platform_changed("set-edge-speed", Unit::Edge(j.0));
        Ok(v)
    }

    /// Re-provisions cloud `k` to a new speed (progress kept, as for
    /// [`Session::set_edge_speed`]). Returns the new platform version.
    pub fn set_cloud_speed(&mut self, k: CloudId, speed: f64) -> Result<u64, PlatformError> {
        let v = self.platform.set_cloud_speed(k, speed)?;
        self.platform_changed("set-cloud-speed", Unit::Cloud(k.0));
        Ok(v)
    }

    /// Re-provisions tier hop `hop` (the link between tiers `hop` and
    /// `hop + 1`) to new per-volume path factors. In-flight transfers
    /// keep their transferred volume and proceed at the new rate, exactly
    /// as a speed change does for compute. Rejected on flat (untiered)
    /// platforms. Returns the new platform version.
    pub fn set_hop(&mut self, hop: usize, up: f64, dn: f64) -> Result<u64, PlatformError> {
        let v = self.platform.set_hop(hop, up, dn)?;
        self.platform_changed("set-hop", Unit::Hop(hop));
        Ok(v)
    }

    /// Work in flight on `unit` is lost (paper restart semantics), under a
    /// crash fault and a permanent removal alike: every unfinished job
    /// committed to the unit drops its commitment, and one with progress
    /// is wiped, counted as a restart, and announced as `JobKilled`. An
    /// edge's committed jobs are its own origin's local ones; its
    /// cloud-committed jobs merely pause, as its ports are blocked while
    /// it is down.
    fn kill_work_on(&mut self, unit: Unit) {
        let (target, origin) = match unit {
            Unit::Edge(j) => (Target::Edge, Some(EdgeId(j))),
            Unit::Cloud(k) => (Target::Cloud(CloudId(k)), None),
            Unit::Hop(_) => unreachable!("a tier hop runs no work"),
        };
        for i in 0..self.jobs.len() {
            if self.jobs.finished[i]
                || self.jobs.committed[i] != Some(target)
                || origin.is_some_and(|j| self.instance.job(JobId(i)).origin != j)
            {
                continue;
            }
            let had_progress =
                self.jobs.up_done[i] + self.jobs.work_done[i] + self.jobs.dn_done[i] > 0.0;
            self.jobs.committed[i] = None;
            self.jobs.running[i] = None;
            if had_progress {
                self.jobs.reset_progress(i);
                self.stats.restarts += 1;
                self.trace.abandon(JobId(i));
                emit!(
                    self,
                    ObsEvent::JobKilled {
                        t: self.now,
                        job: self.retired + i,
                        unit,
                    }
                );
            }
        }
    }

    /// Bookkeeping shared by every committed platform mutation: the
    /// version bump is a decision-epoch bump (gated policies must
    /// re-decide), resource maps are re-sized to the new spec, a paused
    /// or blocked session is woken (a mutation can unblock it), and the
    /// mutation is announced to the observer.
    fn platform_changed(&mut self, op: &'static str, unit: Unit) {
        self.epoch += 1;
        self.blocked.reset_for(self.platform.spec(), false);
        self.has_unavailability = self.platform.spec().has_unavailability();
        // Speed/membership changes move the stretch denominators; refresh
        // the arena cache so stretch reads stay coherent with the spec.
        self.jobs
            .recompute_min_times(&self.instance, self.platform.spec());
        self.blocked_epoch = None;
        self.paused_at_bound = false;
        // The forced re-decide consumes one event of livelock budget.
        self.limit_extra += 1;
        emit!(
            self,
            ObsEvent::PlatformChanged {
                t: self.now,
                version: self.platform.version(),
                op,
                unit,
            }
        );
    }

    /// Runs one engine step to the next event horizon (unbounded in
    /// time). Equivalent to one iteration of the batch loop.
    pub fn step(&mut self) -> Result<SessionStatus, EngineError> {
        self.step_inner(None)
    }

    /// Advances the session up to virtual time `t` (inclusive): steps
    /// while the next event horizon is at or before `t`, then accrues
    /// in-flight progress up to `t` and pauses there.
    ///
    /// Returns [`SessionStatus::Reached`] when `t` capped the advance,
    /// [`SessionStatus::Done`] when all submitted jobs finished first,
    /// and [`SessionStatus::Blocked`] when unfinished jobs can make no
    /// progress until more work is submitted.
    pub fn run_until(&mut self, t: Time) -> Result<SessionStatus, EngineError> {
        loop {
            if self.unfinished == 0 {
                return Ok(SessionStatus::Done);
            }
            if self.started {
                let due = self
                    .queue
                    .peek_time()
                    .is_some_and(|p| p.approx_le(self.now));
                if !due {
                    // Already paused at (or beyond) the bound: nothing
                    // new can happen before `t`, so don't burn an event
                    // on a decide that cannot change anything.
                    if self.now > t || (self.now >= t && self.paused_at_bound) {
                        return Ok(SessionStatus::Reached);
                    }
                    // Known-blocked at this epoch with an empty queue:
                    // only a submission can unblock the run.
                    if self.blocked_epoch == Some(self.epoch) && self.queue.is_empty() {
                        return Ok(SessionStatus::Blocked);
                    }
                }
            }
            match self.step_inner(Some(t))? {
                SessionStatus::Advanced => continue,
                status => return Ok(status),
            }
        }
    }

    /// Runs the session to completion of every submitted job. A blocked
    /// session is an error here — this is the batch semantics, where
    /// unfinished jobs with no future event mean the scheduler stopped
    /// scheduling them.
    pub fn drain(&mut self) -> Result<(), EngineError> {
        loop {
            match self.step_inner(None)? {
                SessionStatus::Advanced => {}
                SessionStatus::Done => return Ok(()),
                SessionStatus::Blocked => {
                    let pending = (0..self.jobs.len())
                        .filter(|&i| !self.jobs.finished[i])
                        .map(|i| JobId(self.retired + i))
                        .collect();
                    return Err(EngineError::Stalled {
                        time: self.now,
                        pending,
                    });
                }
                SessionStatus::Reached => unreachable!("unbounded step cannot hit a bound"),
            }
        }
    }

    /// A point-in-time summary of the session. Allocation-free.
    pub fn snapshot(&self) -> SessionStats {
        let mut run = self.stats;
        run.total_time = self.started_wall.elapsed();
        SessionStats {
            now: self.now,
            submitted: self.retired + self.instance.num_jobs(),
            completed: self.completed,
            unfinished: self.unfinished,
            pending: self.pending.len(),
            // The last grant survives in `prev_activations` between
            // steps; jobs that completed during the step drop out.
            running: self
                .prev_activations
                .iter()
                .filter(|a| !self.jobs.finished[a.job.0])
                .count(),
            max_stretch: self.stretch_max,
            mean_stretch: if self.completed > 0 {
                self.stretch_sum / self.completed as f64
            } else {
                0.0
            },
            run,
        }
    }

    /// Finalizes the session into a batch-style [`RunOutcome`]. After a
    /// [`Session::retire_finished`], the schedule covers only the jobs
    /// submitted since then, indexed from 0.
    pub fn into_outcome(mut self) -> RunOutcome {
        emit!(self, ObsEvent::RunEnd { makespan: self.now });
        let mut stats = self.stats;
        stats.total_time = self.started_wall.elapsed();
        RunOutcome {
            schedule: self.trace.finish(),
            stats,
        }
    }

    /// Closes the span opened at `mark` into `phase` and returns the new
    /// fencepost: one clock read both ends this span and starts the next,
    /// so the phases partition the step with no unmeasured gaps. `None`
    /// (profiler off) stays `None` and reads no clock.
    #[inline]
    fn prof_lap(&mut self, mark: Option<Instant>, phase: EnginePhase) -> Option<Instant> {
        mark.map(|t0| {
            let t1 = Instant::now();
            if let Some(p) = self.profiler.as_deref_mut() {
                p.record(phase, t1 - t0);
            }
            t1
        })
    }

    /// Accounts one full pass through `step_inner` (entered at `t_enter`)
    /// to the profiler's loop wall time. Called at every exit path.
    #[inline]
    fn prof_step_done(&mut self, t_enter: Option<Instant>) {
        if let Some(t0) = t_enter {
            let wall = t0.elapsed();
            if let Some(p) = self.profiler.as_deref_mut() {
                p.add_step(wall);
            }
        }
    }

    /// One iteration of the batch engine loop, optionally capped at a
    /// time bound: fire due events, decide (or skip under gating), apply
    /// commitments, grant resources, advance to the next horizon (or the
    /// bound), accrue progress, process completions.
    fn step_inner(&mut self, bound: Option<Time>) -> Result<SessionStatus, EngineError> {
        if !self.started {
            let Some(t0) = self.queue.peek_time() else {
                // Nothing was ever submitted (submissions always queue a
                // release): the session is trivially done.
                debug_assert_eq!(self.unfinished, 0);
                return Ok(SessionStatus::Done);
            };
            if bound.is_some_and(|b| t0 > b) {
                // Time has not started yet and nothing happens before the
                // bound; stay unstarted so earlier submissions can still
                // move the start of time backwards.
                return Ok(SessionStatus::Reached);
            }
            self.now = t0;
            self.started = true;
        }
        debug_assert!(
            bound.map_or(true, |b| b >= self.now),
            "bound lies in the past"
        );
        self.paused_at_bound = false;

        // Telemetry: with a profiler attached, fencepost clock reads
        // partition the step into phase spans. `t_enter` doubles as the
        // first fencepost and the loop-wall anchor; each `prof_lap`
        // closes one span and opens the next with a single read.
        let t_enter = self.profiler.is_some().then(Instant::now);
        self.fault_span = Duration::ZERO;

        // 1. Fire all events at (approximately) the current instant.
        self.fire_due_events();
        let mut mark = t_enter.map(|t0| {
            let t1 = Instant::now();
            // Fault replay was timed separately inside `fire_due_events`;
            // subtract it so event-pop and fault-replay stay disjoint.
            let span = (t1 - t0).saturating_sub(self.fault_span);
            if let Some(p) = self.profiler.as_deref_mut() {
                p.record(EnginePhase::EventPop, span);
            }
            t1
        });

        if self.unfinished == 0 {
            self.prof_step_done(t_enter);
            return Ok(SessionStatus::Done);
        }

        self.stats.events += 1;
        let limit = self.limit_base + self.limit_extra;
        if self.stats.events > limit {
            self.prof_step_done(t_enter);
            return Err(EngineError::EventLimit { limit });
        }

        // 2. Ask the policy for directives — unless gating is on and no
        //    decision-relevant state changed since the last invoked
        //    decide, in which case the previous sanitized buffer is
        //    reused verbatim (finished/killed jobs always bump the
        //    epoch, so a stale directive cannot survive a skip).
        let mut invoked_wall: Option<Duration> = None;
        if self.gating && self.epoch == self.decided_epoch {
            self.stats.decide_skips += 1;
            emit!(
                self,
                ObsEvent::DecideSkipped {
                    t: self.now,
                    pending: self.pending.len(),
                }
            );
        } else {
            {
                let view = SimView::new(
                    &self.instance,
                    self.now,
                    &self.jobs,
                    &self.pending,
                    &self.platform,
                );
                emit!(
                    self,
                    ObsEvent::DecideStart {
                        t: self.now,
                        pending: view.num_pending(),
                    }
                );
                self.buf.clear();
                let t0 = Instant::now();
                self.scheduler.get().decide(&view, &mut self.buf);
                let wall = t0.elapsed();
                self.stats.decide_time += wall;
                invoked_wall = Some(wall);
                // Sanitize: keep the first directive per job, drop
                // unreleased/finished jobs.
                let stamp = self.stats.events;
                let jobs = &self.jobs;
                let seen = &mut self.seen;
                let n = jobs.len();
                self.buf.retain(|d| {
                    let ok = d.job.0 < n && jobs.active(d.job.0) && seen[d.job.0] != stamp;
                    if ok {
                        seen[d.job.0] = stamp;
                    }
                    ok
                });
                emit!(
                    self,
                    ObsEvent::DecideEnd {
                        t: self.now,
                        wall,
                        directives: self.buf.len(),
                    }
                );
            }
            self.stats.decides += 1;
            self.decided_epoch = self.epoch;
        }
        if let Some(t0) = mark {
            // The segment since the last fencepost holds the decide call
            // plus its sanitize/replay bookkeeping: the decide span is
            // the policy wall time already measured for `stats`, the
            // remainder is sanitize (the whole segment on a gated skip).
            let t1 = Instant::now();
            let seg = t1 - t0;
            if let Some(p) = self.profiler.as_deref_mut() {
                match invoked_wall {
                    Some(w) => {
                        let w = w.min(seg);
                        p.note_decide();
                        p.record(EnginePhase::Decide, w);
                        p.record(EnginePhase::Sanitize, seg - w);
                    }
                    None => {
                        p.note_skip();
                        p.record(EnginePhase::Sanitize, seg);
                    }
                }
            }
            mark = Some(t1);
        }

        // 3. Apply commitments / re-executions.
        for d in self.buf.as_mut_slice() {
            let i = d.job.0;
            match self.jobs.committed[i] {
                None => self.jobs.committed[i] = Some(d.target),
                Some(t) if t == d.target => {}
                Some(t) => {
                    let has_progress =
                        self.jobs.up_done[i] + self.jobs.work_done[i] + self.jobs.dn_done[i] > 0.0;
                    let pinned = !self.opts.allow_preemption && self.jobs.running[i].is_some();
                    if !has_progress && !pinned {
                        // Nothing executed yet: re-commitment is free.
                        self.jobs.committed[i] = Some(d.target);
                    } else if self.opts.allow_reexecution && !pinned {
                        self.jobs.reset_progress(i);
                        self.stats.restarts += 1;
                        self.trace.abandon(d.job);
                        emit!(
                            self,
                            ObsEvent::Restarted {
                                t: self.now,
                                job: self.retired + d.job.0,
                                from: obs_unit(self.instance.job(d.job).origin, t, Phase::Compute),
                                to: obs_unit(
                                    self.instance.job(d.job).origin,
                                    d.target,
                                    Phase::Compute
                                ),
                            }
                        );
                        self.jobs.committed[i] = Some(d.target);
                    } else {
                        // Retarget refused: keep the old commitment. The
                        // engine's buffer now differs from what the
                        // policy emitted, so conservatively treat the
                        // rewrite as a decision-relevant transition.
                        d.target = t;
                        self.epoch += 1;
                    }
                }
            }
        }

        // 4. Block resources: unavailability windows, then pinned
        //    (non-preemptable) running activities, then the greedy grant.
        self.blocked.fill(false);
        {
            let spec = self.platform.spec();
            if self.has_unavailability {
                for k in spec.clouds() {
                    if spec
                        .cloud_unavailability(k)
                        .iter()
                        .any(|w| w.contains(self.now))
                    {
                        self.blocked[ResourceId::CloudCpu(k)] = true;
                    }
                }
            }
            if let Some(av) = self.platform.overlay() {
                // A down edge takes its CPU and both ports with it; a
                // link outage (factor 0) blocks only the ports, so
                // edge-local compute continues and cloud-bound jobs pause
                // in place.
                for j in spec.edges() {
                    if !av.edge_up[j.0] {
                        self.blocked[ResourceId::EdgeCpu(j)] = true;
                        self.blocked[ResourceId::EdgeOut(j)] = true;
                        self.blocked[ResourceId::EdgeIn(j)] = true;
                    } else if av.link_factor[j.0] == 0.0 {
                        self.blocked[ResourceId::EdgeOut(j)] = true;
                        self.blocked[ResourceId::EdgeIn(j)] = true;
                    }
                }
                for k in spec.clouds() {
                    if !av.cloud_up[k.0] {
                        self.blocked[ResourceId::CloudCpu(k)] = true;
                        self.blocked[ResourceId::CloudIn(k)] = true;
                        self.blocked[ResourceId::CloudOut(k)] = true;
                    }
                }
            }
        }
        self.activations.clear();
        {
            let view = SimView::new(
                &self.instance,
                self.now,
                &self.jobs,
                &self.pending,
                &self.platform,
            );
            if !self.opts.allow_preemption {
                self.skip.fill(false);
                grant::pin_running(
                    &view,
                    &mut self.blocked,
                    &mut self.skip,
                    &mut self.activations,
                );
            }
            greedy_allocate(
                &view,
                self.buf.as_slice(),
                &mut self.blocked,
                &self.skip,
                self.opts.infinite_ports,
                &mut self.activations,
            );
        }
        if let Some(av) = self.platform.overlay() {
            // Link degradation: scale granted communication rates by the
            // origin edge's current factor. Factors of exactly 1.0 leave
            // the rate bit-identical; factor 0 never reaches here (the
            // ports were blocked above, so no activation was granted).
            for act in self.activations.iter_mut() {
                if act.phase != Phase::Compute {
                    let f = av.link_factor[self.instance.job(act.job).origin.0];
                    if f != 1.0 {
                        act.rate *= f;
                    }
                }
            }
        }

        // Only the previous grant can have left `running` flags set
        // (fault kills and completions clear theirs inline), so sweep
        // just those instead of every job.
        for act in &self.prev_activations {
            self.jobs.running[act.job.0] = None;
        }
        for act in &self.activations {
            self.jobs.running[act.job.0] = Some(act.phase);
        }
        mark = self.prof_lap(mark, EnginePhase::Grant);

        // 5. Find the next event horizon. `act.remaining` was read from
        //    the arena at grant time and nothing has accrued since.
        let mut t_next = self.queue.peek_time();
        for act in &self.activations {
            let rem = act.remaining / act.rate;
            let fin = self.now + Time::new(rem);
            t_next = Some(t_next.map_or(fin, |t| t.min(fin)));
        }
        let Some(t_next) = t_next else {
            self.prof_lap(mark, EnginePhase::Commit);
            self.prof_step_done(t_enter);
            self.blocked_epoch = Some(self.epoch);
            return Ok(SessionStatus::Blocked);
        };

        // 6. Advance time (capped at the bound, if any), accrue progress,
        //    record the trace.
        let t_next = t_next.max(self.now);
        let capped = bound.is_some_and(|b| b < t_next);
        let t_adv = if capped {
            // An externally-imposed pause splits one engine step in two;
            // extend the livelock budget by the extra event.
            self.limit_extra += 1;
            bound.expect("capped implies a bound").max(self.now)
        } else {
            t_next
        };
        let dt = (t_adv - self.now).seconds();
        if dt > 0.0 {
            for act in &self.activations {
                let amount = act.rate * dt;
                match act.phase {
                    Phase::Uplink => self.jobs.up_done[act.job.0] += amount,
                    Phase::Compute => self.jobs.work_done[act.job.0] += amount,
                    Phase::Downlink => self.jobs.dn_done[act.job.0] += amount,
                }
                self.trace.record(
                    act.job,
                    act.phase,
                    act.target,
                    Interval::new(self.now, t_adv),
                );
                emit!(
                    self,
                    ObsEvent::Placed {
                        job: self.retired + act.job.0,
                        origin: self.instance.job(act.job).origin.0,
                        target: obs_unit(self.instance.job(act.job).origin, act.target, act.phase),
                        cloud: obs_cloud(act.target),
                        phase: obs_phase(act.phase),
                        interval: Interval::new(self.now, t_adv),
                        volume: if act.phase == Phase::Compute {
                            0.0
                        } else {
                            amount
                        },
                    }
                );
            }
        }
        self.now = t_adv;

        // 7. Job completions (phase transitions become visible to the
        //    next decision automatically). A capped advance stops
        //    strictly before the next completion, so the scan is a no-op
        //    there (kept unconditional to absorb float-boundary cases).
        for act in &self.activations {
            let i = act.job.0;
            if self.jobs.finished[i] {
                continue;
            }
            let job = self.instance.job(act.job);
            if self.jobs.current_phase(i, job, act.target).is_none() {
                self.jobs.finished[i] = true;
                self.jobs.completion[i] = Some(self.now);
                self.jobs.running[i] = None;
                self.pending.remove(job.release, act.job);
                self.unfinished -= 1;
                // A completion shrinks the pending membership: always a
                // decision-relevant transition.
                self.epoch += 1;
                self.trace.complete(act.job, self.now);
                // The cached denominator is the same fold the frozen spec
                // would produce (recomputed on every mutation), so the
                // stretch is bit-identical to an uncached read.
                let stretch = (self.now - job.release).seconds() / self.jobs.min_time[i];
                self.completed += 1;
                self.stretch_sum += stretch;
                self.stretch_max = self.stretch_max.max(stretch);
                emit!(
                    self,
                    ObsEvent::Completed {
                        t: self.now,
                        job: self.retired + i,
                        release: job.release,
                        cloud: obs_cloud(act.target),
                        response: (self.now - job.release).seconds(),
                        stretch,
                    }
                );
            }
        }
        std::mem::swap(&mut self.prev_activations, &mut self.activations);
        self.prof_lap(mark, EnginePhase::Commit);
        self.prof_step_done(t_enter);
        if capped {
            self.paused_at_bound = true;
            Ok(SessionStatus::Reached)
        } else {
            Ok(SessionStatus::Advanced)
        }
    }

    /// Step 1 of the engine loop: pop and apply every queued event at
    /// (approximately) the current instant, bumping the decision epoch
    /// for decision-relevant ranks.
    fn fire_due_events(&mut self) {
        while let Some(t) = self.queue.peek_time() {
            if !t.approx_le(self.now) {
                break;
            }
            let (t_ev, rank, ev) = self.queue.pop_ranked().expect("peeked");
            // Fault arms are timed individually (and accumulated into
            // `fault_span`, which the caller subtracts from its event-pop
            // span) so fault replay shows up as its own profile phase.
            let fault_t0 =
                (self.profiler.is_some() && events::is_fault_event(&ev)).then(Instant::now);
            // Classify by rank class; the LinkChange arm below demotes
            // itself when the re-read factor turns out unchanged.
            let mut bump = events::rank_is_decision_relevant(rank);
            match ev {
                EngineEvent::Release(id) => {
                    self.jobs.released[id.0] = true;
                    self.pending.insert(self.instance.job(id).release, id);
                    emit!(
                        self,
                        ObsEvent::JobReleased {
                            t: self.now,
                            job: self.retired + id.0,
                        }
                    );
                }
                EngineEvent::Boundary => {}
                EngineEvent::EdgeDown(j) => {
                    self.platform.fault_edge_down(j);
                    emit!(
                        self,
                        ObsEvent::UnitDown {
                            t: self.now,
                            unit: Unit::Edge(j.0),
                        }
                    );
                    self.kill_work_on(Unit::Edge(j.0));
                }
                EngineEvent::EdgeUp(j) => {
                    self.platform.fault_edge_up(j);
                    emit!(
                        self,
                        ObsEvent::UnitUp {
                            t: self.now,
                            unit: Unit::Edge(j.0),
                        }
                    );
                }
                EngineEvent::CloudDown(k) => {
                    self.platform.fault_cloud_down(k);
                    emit!(
                        self,
                        ObsEvent::UnitDown {
                            t: self.now,
                            unit: Unit::Cloud(k.0),
                        }
                    );
                    self.kill_work_on(Unit::Cloud(k.0));
                }
                EngineEvent::CloudUp(k) => {
                    self.platform.fault_cloud_up(k);
                    emit!(
                        self,
                        ObsEvent::UnitUp {
                            t: self.now,
                            unit: Unit::Cloud(k.0),
                        }
                    );
                }
                EngineEvent::LinkChange(j) => {
                    // Re-read the factor at the event's own (exact) time:
                    // windows are half-open, so the change at a window's
                    // end restores 1.0 and the one at its start applies
                    // the window's factor.
                    let plan = self.faults.expect("fault events imply a plan");
                    let f = plan.link_factor_at(j.0, t_ev);
                    if self.platform.fault_set_link(j, f) {
                        let factor = self.platform.availability().link_factor[j.0];
                        emit!(
                            self,
                            ObsEvent::LinkDegraded {
                                t: self.now,
                                edge: j.0,
                                factor,
                            }
                        );
                    } else {
                        bump = false;
                    }
                }
            }
            if let Some(t0) = fault_t0 {
                let d = t0.elapsed();
                self.fault_span += d;
                if let Some(p) = self.profiler.as_deref_mut() {
                    p.record(EnginePhase::FaultReplay, d);
                }
            }
            if bump {
                self.epoch += 1;
            }
        }
    }
}

/// The livelock budget of the submitted workload: the automatic event
/// cap, widened by the fault plan's windows when one is attached.
fn workload_budget(instance: &Instance, faults: Option<&FaultPlan>) -> u64 {
    match faults {
        Some(plan) => events::auto_event_limit_with_faults(instance, plan),
        None => events::auto_event_limit(instance),
    }
}
