//! Engine events: the queue of future decision points and the mapping of
//! engine happenings onto the observer taxonomy.

use crate::activity::{Phase, Target};
use crate::instance::Instance;
use crate::job::JobId;
use crate::spec::{CloudId, EdgeId};
use mmsec_faults::{FaultBoundary, FaultPlan};
use mmsec_obs::{PhaseKind, Unit};
use mmsec_sim::EventQueue;

/// A future decision point known in advance (phase completions are
/// discovered dynamically and never enter the queue: the engine advances
/// time directly to the earliest one).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum EngineEvent {
    /// A job becomes available for scheduling.
    Release(JobId),
    /// Cloud availability-window boundary: a pure decision point.
    Boundary,
    /// Fault injection: edge server crashes (work in flight on it is lost).
    EdgeDown(EdgeId),
    /// Fault injection: edge server recovers.
    EdgeUp(EdgeId),
    /// Fault injection: cloud processor crashes.
    CloudDown(CloudId),
    /// Fault injection: cloud processor recovers.
    CloudUp(CloudId),
    /// Fault injection: the link capacity of an edge changes (the new
    /// factor is read back from the [`FaultPlan`] at the event's time).
    LinkChange(EdgeId),
}

/// Boundaries fire before releases at equal times so that a decision taken
/// at the instant a window opens/closes already sees the new availability.
/// Fault recoveries share the boundary rank and fault crashes follow them,
/// so two windows touching at an instant net to "down" at that instant
/// (half-open windows: recovery applies first, then the next crash).
/// Releases keep firing last. With no fault plan the queue only ever holds
/// boundaries and releases, whose relative order is unchanged — fault-free
/// runs stay bit-identical to the pre-fault engine.
pub(super) const RANK_BOUNDARY: u8 = 0;
pub(super) const RANK_FAULT_UP: u8 = 0;
pub(super) const RANK_FAULT_DOWN: u8 = 1;
pub(super) const RANK_RELEASE: u8 = 2;

/// Whether events of `rank` are decision-relevant: firing one can change
/// what a policy would decide, so the engine bumps its decision epoch.
/// Every rank currently queued qualifies — boundaries flip blocked
/// resources, fault transitions flip availability, releases change the
/// pending membership. The classification is by rank (via
/// [`EventQueue::pop_ranked`]) so a future bookkeeping-only
/// rank can opt out without the engine matching on payloads; the one
/// payload-level refinement is a [`EngineEvent::LinkChange`] that re-reads
/// an unchanged factor, which the engine demotes to a no-op itself.
pub(super) fn rank_is_decision_relevant(rank: u8) -> bool {
    matches!(rank, RANK_BOUNDARY | RANK_FAULT_DOWN | RANK_RELEASE)
}

/// True for events that replay the fault plan (crashes, recoveries, link
/// changes). The phase profiler attributes their handling to its
/// fault-replay phase instead of the general event-pop span.
pub(super) fn is_fault_event(ev: &EngineEvent) -> bool {
    !matches!(ev, EngineEvent::Release(_) | EngineEvent::Boundary)
}

/// Pushes every availability boundary of a compiled fault plan into the
/// queue (called right after [`prime_queue`] when a plan is supplied).
pub(super) fn prime_faults(queue: &mut EventQueue<EngineEvent>, plan: &FaultPlan) {
    for b in plan.boundaries() {
        // Recoveries take the earlier rank (see the rank table above);
        // crashes and link changes fire after them at equal times.
        let rank = if b.is_recovery() {
            RANK_FAULT_UP
        } else {
            RANK_FAULT_DOWN
        };
        let event = match b {
            FaultBoundary::EdgeDown(j, _) => EngineEvent::EdgeDown(EdgeId(j)),
            FaultBoundary::EdgeUp(j, _) => EngineEvent::EdgeUp(EdgeId(j)),
            FaultBoundary::CloudDown(k, _) => EngineEvent::CloudDown(CloudId(k)),
            FaultBoundary::CloudUp(k, _) => EngineEvent::CloudUp(CloudId(k)),
            FaultBoundary::LinkChange(j, _) => EngineEvent::LinkChange(EdgeId(j)),
        };
        queue.push(b.time(), rank, event);
    }
}

/// Builds the initial event queue: one release per job plus both
/// boundaries of every cloud availability window.
pub(super) fn prime_queue(instance: &Instance) -> EventQueue<EngineEvent> {
    let mut queue = EventQueue::new();
    for (id, job) in instance.iter_jobs() {
        queue.push(job.release, RANK_RELEASE, EngineEvent::Release(id));
    }
    let spec = &instance.spec;
    for k in spec.clouds() {
        for w in spec.cloud_unavailability(k).iter() {
            queue.push(w.start(), RANK_BOUNDARY, EngineEvent::Boundary);
            queue.push(w.end(), RANK_BOUNDARY, EngineEvent::Boundary);
        }
    }
    queue
}

/// The engine's event cap: `1000 + 64·n + 8·w`, where `n` is the number
/// of jobs and `w` the total number of cloud availability windows. A
/// session adds one event per capped pause and per platform mutation.
///
/// Rationale: a well-behaved policy generates O(1) events per job — one
/// release, at most three phase completions, and a bounded number of
/// re-execution points — so `64·n` leaves a generous ~20× margin over the
/// worst observed policies; each availability window adds two boundary
/// events plus the pause/resume churn around them, covered by `8·w`; the
/// `1000` floor keeps tiny instances from tripping the cap during
/// pathological-but-finite warm-up behavior. A policy that exceeds this
/// budget is almost certainly livelocked (e.g. retargeting a job forever,
/// wiping its progress each time, so the simulation never advances) and
/// the run is aborted with [`super::EngineError::EventLimit`].
pub fn auto_event_limit(instance: &Instance) -> u64 {
    1000 + 64 * instance.num_jobs() as u64 + 8 * total_windows(instance) as u64
}

/// Like [`auto_event_limit`], with a fault plan contributing `8` events
/// per fault window — two boundaries plus the kill/replace churn around
/// each — mirroring the budget of cloud availability windows.
pub fn auto_event_limit_with_faults(instance: &Instance, plan: &FaultPlan) -> u64 {
    auto_event_limit(instance) + 8 * plan.total_windows() as u64
}

/// Total number of cloud availability windows over all cloud processors.
pub(super) fn total_windows(instance: &Instance) -> usize {
    instance
        .spec
        .clouds()
        .map(|k| instance.spec.cloud_unavailability(k).len())
        .sum()
}

/// Resource a `phase` of a job occupies, in observer terms: communications
/// are attributed to the origin edge's ports, computations to the unit
/// that executes them.
pub(super) fn obs_unit(origin: EdgeId, target: Target, phase: Phase) -> Unit {
    match (phase, target) {
        (Phase::Compute, Target::Cloud(k)) => Unit::Cloud(k.0),
        (Phase::Compute, Target::Edge) => Unit::Edge(origin.0),
        (Phase::Uplink | Phase::Downlink, _) => Unit::Edge(origin.0),
    }
}

/// The cloud a job is committed to, in observer terms (`None` for a job
/// on its own edge): the `cloud` field of `Placed` and `Completed`.
pub(super) fn obs_cloud(target: Target) -> Option<usize> {
    match target {
        Target::Cloud(k) => Some(k.0),
        Target::Edge => None,
    }
}

pub(super) fn obs_phase(phase: Phase) -> PhaseKind {
    match phase {
        Phase::Uplink => PhaseKind::Uplink,
        Phase::Compute => PhaseKind::Compute,
        Phase::Downlink => PhaseKind::Downlink,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Job;
    use crate::spec::{CloudId, PlatformSpec};
    use mmsec_sim::{Interval, Time};

    #[test]
    fn auto_event_limit_formula() {
        let spec = PlatformSpec::builder()
            .edges(vec![1.0])
            .cloud_pool(1)
            .build();
        let jobs: Vec<_> = (0..5)
            .map(|i| Job::new(EdgeId(0), i as f64, 1.0, 0.0, 0.0))
            .collect();
        let inst = Instance::new(spec, jobs).unwrap();
        // No windows: 1000 + 64·5.
        assert_eq!(auto_event_limit(&inst), 1000 + 64 * 5);

        let spec = PlatformSpec::builder()
            .edges(vec![1.0])
            .cloud_pool(2)
            .build()
            .with_cloud_unavailability(CloudId(0), &[Interval::from_secs(1.0, 2.0)])
            .with_cloud_unavailability(
                CloudId(1),
                &[Interval::from_secs(0.5, 1.0), Interval::from_secs(3.0, 4.0)],
            );
        let jobs = vec![Job::new(EdgeId(0), 0.0, 1.0, 0.0, 0.0)];
        let inst = Instance::new(spec, jobs).unwrap();
        // 3 windows over both clouds: 1000 + 64·1 + 8·3.
        assert_eq!(auto_event_limit(&inst), 1000 + 64 + 24);
    }

    #[test]
    fn fault_recovery_outranks_crash_outranks_release() {
        let spec = PlatformSpec::builder()
            .edges(vec![1.0])
            .cloud_pool(1)
            .build();
        let jobs = vec![Job::new(EdgeId(0), 2.0, 1.0, 0.0, 0.0)];
        let inst = Instance::new(spec, jobs).unwrap();
        let mut plan = FaultPlan::empty(1, 1);
        plan.add_edge_down(0, Interval::from_secs(1.0, 2.0));
        plan.add_cloud_down(0, Interval::from_secs(2.0, 3.0));
        let mut queue = prime_queue(&inst);
        prime_faults(&mut queue, &plan);
        let fired: Vec<_> = std::iter::from_fn(|| queue.pop()).collect();
        assert_eq!(
            fired,
            vec![
                (Time::new(1.0), EngineEvent::EdgeDown(EdgeId(0))),
                // At t = 2: recovery first, then the next crash, then the
                // release — a decision at t = 2 sees edge 0 up and cloud 0
                // down.
                (Time::new(2.0), EngineEvent::EdgeUp(EdgeId(0))),
                (Time::new(2.0), EngineEvent::CloudDown(CloudId(0))),
                (Time::new(2.0), EngineEvent::Release(JobId(0))),
                (Time::new(3.0), EngineEvent::CloudUp(CloudId(0))),
            ]
        );
    }

    #[test]
    fn fault_event_limit_extends_the_base_budget() {
        let spec = PlatformSpec::builder()
            .edges(vec![1.0])
            .cloud_pool(1)
            .build();
        let jobs = vec![Job::new(EdgeId(0), 0.0, 1.0, 0.0, 0.0)];
        let inst = Instance::new(spec, jobs).unwrap();
        let mut plan = FaultPlan::empty(1, 1);
        plan.add_edge_down(0, Interval::from_secs(1.0, 2.0));
        plan.add_cloud_down(0, Interval::from_secs(4.0, 5.0));
        assert_eq!(
            auto_event_limit_with_faults(&inst, &plan),
            auto_event_limit(&inst) + 16
        );
    }

    #[test]
    fn prime_queue_orders_boundaries_before_releases() {
        let spec = PlatformSpec::builder()
            .edges(vec![1.0])
            .cloud_pool(1)
            .build()
            .with_cloud_unavailability(CloudId(0), &[Interval::from_secs(2.0, 5.0)]);
        let jobs = vec![Job::new(EdgeId(0), 2.0, 1.0, 0.0, 0.0)];
        let inst = Instance::new(spec, jobs).unwrap();
        let mut queue = prime_queue(&inst);
        // At t = 2 the window-start boundary outranks the release.
        let (t, ev) = queue.pop().unwrap();
        assert_eq!(t.seconds(), 2.0);
        assert_eq!(ev, EngineEvent::Boundary);
        let (t, ev) = queue.pop().unwrap();
        assert_eq!(t.seconds(), 2.0);
        assert_eq!(ev, EngineEvent::Release(JobId(0)));
        let (t, ev) = queue.pop().unwrap();
        assert_eq!(t.seconds(), 5.0);
        assert_eq!(ev, EngineEvent::Boundary);
        assert!(queue.pop().is_none());
    }
}
