//! Event-driven simulation engine.
//!
//! The engine realizes the execution model of §III and the event-based
//! decision structure of §V: decisions are (re)taken only when an event
//! occurs — a job release, an uplink/downlink completion, or an execution
//! completion (plus, for the §VII extension, a cloud availability-window
//! boundary). At each event the scheduler fills a *prioritized directive
//! buffer* `(job → target)`; the engine walks it in order and activates
//! each job's current phase iff every resource it needs is free. Between
//! two events the assignment of activities to resources is constant.
//!
//! Semantics enforced here:
//! * **preemption** — a job that is not granted resources at an event
//!   simply pauses (progress kept) and may resume later;
//! * **no migration, re-execution allowed** — when a directive changes a
//!   job's committed target, all progress is wiped and the abandoned
//!   activity is recorded (it occupied resources but is lost);
//! * **one-port full-duplex** — communications claim the sender and
//!   receiver ports exclusively (unless the macro-dataflow ablation
//!   `infinite_ports` is enabled).
//!
//! # Module layout
//!
//! * [`mod@self`] — the [`OnlineScheduler`] contract and
//!   [`EngineOptions`];
//! * [`session`] — the seven-step run loop as a resumable [`Session`]
//!   driver (pause/resume, mid-run [`Session::submit`]);
//! * [`simulation`] — the [`Simulation`] builder, the one batch entry
//!   point;
//! * [`grant`] — the greedy resource-grant walk ([`greedy_allocate`]) and
//!   non-preemptive pinning;
//! * [`events`] — the event queue priming, the automatic event cap
//!   ([`events::auto_event_limit`]), and observer-taxonomy mapping;
//! * [`outcome`] — [`RunOutcome`], [`RunStats`], and [`EngineError`].
//!
//! # Allocation discipline
//!
//! The decide hot path performs no per-event allocation: the engine owns
//! one [`DirectiveBuffer`] (cleared and refilled by the policy at each
//! event), one activation buffer, one resource-block map, and a stamp
//! array for directive sanitization — all sized once per run and reused
//! across events. The incrementally maintained [`PendingSet`](crate::view::PendingSet) replaces the
//! per-event full-state rescan policies used to pay to enumerate pending
//! jobs.
//!
//! # Decision-epoch gating
//!
//! The engine maintains a *decision epoch*, bumped only by transitions
//! that can change a schedule: job releases, job completions,
//! unit/link availability changes, and directive refusals. For policies
//! declaring [`DecisionCadence::OnEpochChange`], the policy call is
//! skipped entirely at events where the epoch is unchanged and the
//! previous directives are reused — bit-identical to deciding again, and
//! visible in [`RunStats::decides`] versus [`RunStats::decide_skips`].
//! Gating needs preemption: without it, a pin can expire at a phase
//! completion — not an epoch bump — so a gated run would miss the
//! re-target an ungated run applies there. The epoch is the engine's
//! alone; a policy keeping an incremental priority structure across
//! calls (SSF-EDF's and Edge-Only's `(deadline, id)` order) rebuilds it
//! when a job without a deadline appears or the
//! [platform version](SimView::platform_version) moves, and otherwise
//! only drops the jobs [`JobArena::finished`](crate::state::JobArena::finished)
//! marks done.

pub mod events;
pub mod grant;
pub mod outcome;
pub mod session;
pub mod simulation;

pub use grant::{greedy_allocate, remaining_volume, Activation};
pub use outcome::{EngineError, RunOutcome, RunStats};
pub use session::{Session, SessionStats, SessionStatus};
pub use simulation::Simulation;

use crate::activity::DirectiveBuffer;
use crate::instance::Instance;
use crate::view::SimView;
use mmsec_obs::ObserverHandle;

/// How often a policy's `decide` must be invoked (see
/// [`OnlineScheduler::cadence`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecisionCadence {
    /// `decide` must run at every event. Always sound: the default for
    /// policies whose output depends on the current time or on job
    /// progress (SRPT and Greedy rank jobs by projected completion, which
    /// moves at every phase transition).
    EveryEvent,
    /// `decide` output is a pure function of the pending membership, the
    /// current availability, and the policy's own cached plan. The engine
    /// may then skip the call at events where none of those changed
    /// (decision-epoch gating) and reuse the previous directives
    /// unchanged. A policy declaring this promises that two consecutive
    /// calls with no intervening release, completion, availability change,
    /// or directive invalidation would fill the buffer identically.
    OnEpochChange,
}

/// An online scheduling policy (the object of study of paper §V).
pub trait OnlineScheduler {
    /// Human-readable policy name (used in reports).
    fn name(&self) -> String;

    /// Declares when `decide` must be invoked. The conservative default
    /// re-decides at every event; pending/availability-pure policies
    /// (SSF-EDF, Edge-Only, and the sticky baselines) opt into
    /// [`DecisionCadence::OnEpochChange`] so the engine can skip events
    /// that cannot change their output.
    fn cadence(&self) -> DecisionCadence {
        DecisionCadence::EveryEvent
    }

    /// Called once before the simulation starts.
    fn on_start(&mut self, _instance: &Instance) {}

    /// Called when a [`Session::retire_finished`] dropped every job the
    /// session held: all of them had finished, and the next job is
    /// numbered from 0 again. `instance` holds no jobs; the platform and
    /// the clock are unchanged. A policy must forget its per-job state
    /// here. The default calls [`OnlineScheduler::on_start`], the "no
    /// jobs yet" hook; a policy whose `on_start` also drops
    /// platform-shaped caches may override this to keep them.
    fn on_retire(&mut self, instance: &Instance) {
        self.on_start(instance);
    }

    /// Called at every event. Fills `out` — cleared by the engine before
    /// the call — with the prioritized directive list: jobs omitted stay
    /// paused (keeping progress), jobs whose target changed are re-executed
    /// from scratch. The buffer is engine-owned and reused across events,
    /// so a steady-state decision allocates nothing for its output.
    ///
    /// **Growth contract (streaming sessions):** a [`Session`] may
    /// [`Session::submit`] jobs *after* `on_start`, so `view.jobs.len()`
    /// can exceed the job count the policy sized its state for. Policies
    /// keeping per-job vectors must grow them to `view.jobs.len()` at the
    /// top of `decide` (cheap: a length check per call). Batch runs never
    /// trigger this path. Job ids are dense indices into the session's
    /// current jobs: after [`OnlineScheduler::on_retire`] they restart
    /// from 0.
    fn decide(&mut self, view: &SimView<'_>, out: &mut DirectiveBuffer);

    /// Offers the policy an observer for its internal events (e.g. SSF-EDF
    /// reports its stretch binary-search probes). The default keeps none;
    /// policies that emit must store the handle. Called by the run wiring
    /// (not the engine) before the simulation starts.
    fn attach_observer(&mut self, _observer: ObserverHandle) {}
}

/// The model switches of §III. Defaults reproduce the paper's model
/// exactly; the other settings drive the ablation experiments.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EngineOptions {
    /// Disable the one-port model: communications do not contend for ports
    /// (the "macro-dataflow" model the paper argues against in §II).
    pub infinite_ports: bool,
    /// Allow pausing a started activity (paper: true).
    pub allow_preemption: bool,
    /// Allow restarting a job from scratch on another resource (paper: true).
    pub allow_reexecution: bool,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            infinite_ports: false,
            allow_preemption: true,
            allow_reexecution: true,
        }
    }
}

#[cfg(test)]
mod tests;
