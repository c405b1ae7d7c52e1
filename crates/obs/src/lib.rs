//! `mmsec-obs` — observability layer for the simulation engine.
//!
//! The engine and the policies emit a stream of typed [`Event`]s through
//! the [`Observer`] trait. The default is *no observer at all*
//! (`Option<&mut dyn Observer>` is `None` inside the engine), so a plain
//! `simulate` call pays exactly one predictable branch per emission point
//! and nothing else — no allocation, no formatting, no I/O.
//!
//! Provided observers:
//!
//! * [`NullObserver`] — discards everything (useful to measure the cost of
//!   the dispatch itself);
//! * [`MetricsRecorder`] — counters, decide-latency and stretch
//!   histograms, per-unit utilization, queue-depth samples → JSON;
//! * [`ChromeTraceWriter`] — Chrome
//!   trace-event JSON viewable in Perfetto (<https://ui.perfetto.dev>) or
//!   `chrome://tracing`, one track per edge unit / cloud processor plus a
//!   policy track;
//! * [`FlightRecorder`] — fixed-size ring of the last K events, dumped as
//!   a JSON artifact for stall forensics;
//! * [`Fanout`] — broadcasts to several observers;
//! * [`Shared`] — `Rc<RefCell<…>>` wrapper so one recorder can be fed from
//!   two emission sites (engine *and* policy) in a single-threaded run.
//!
//! Beyond the event stream, the crate hosts the engine's phase-timing
//! telemetry: [`PhaseProfiler`] aggregates run-loop span timings into
//! shared fixed-bucket [`Log2Histogram`]s (the same type every other
//! distribution here uses).
//!
//! The crate also hosts the workspace's one JSON codec ([`json`]): the
//! document writer behind these outputs and the zero-allocation
//! one-object-per-line path of the serving protocol.
//!
//! With the `tracing` feature enabled, `forward_to_tracing` additionally
//! mirrors events to `tracing` subscribers.

#![warn(missing_docs)]

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;
use std::time::Duration;

use mmsec_sim::{Interval, Time};

pub mod chrome;
pub mod flight;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod profile;

pub use chrome::ChromeTraceWriter;
pub use flight::{failure_dir, FlightEntry, FlightRecorder};
pub use hist::Log2Histogram;
pub use metrics::MetricsRecorder;
pub use profile::{EnginePhase, PhaseProfiler};

/// A processing resource, as seen by the observability layer.
///
/// Kept deliberately independent of the platform crate's richer types so
/// that `mmsec-obs` only depends on `mmsec-sim` and can be consumed by
/// every layer above it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Unit {
    /// Edge unit with the given index.
    Edge(usize),
    /// Cloud processor with the given index.
    Cloud(usize),
    /// Tier hop with the given index (continuum platforms: the link
    /// connecting tier `i` to tier `i+1`; carries no execution intervals,
    /// only platform-change events).
    Hop(usize),
}

impl Unit {
    /// Name of the resource track an interval of `phase` occupies on this
    /// unit (used consistently by the Chrome export and the metrics
    /// recorder): `"edge-j cpu"`, `"edge-j uplink"`, `"edge-j downlink"`,
    /// or `"cloud-k cpu"` etc.
    pub fn track(self, phase: PhaseKind) -> String {
        format!(
            "{self} {}",
            match phase {
                PhaseKind::Compute => "cpu",
                PhaseKind::Uplink => "uplink",
                PhaseKind::Downlink => "downlink",
            }
        )
    }
}

impl fmt::Display for Unit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Unit::Edge(i) => write!(f, "edge-{i}"),
            Unit::Cloud(i) => write!(f, "cloud-{i}"),
            Unit::Hop(i) => write!(f, "hop-{i}"),
        }
    }
}

/// What kind of work an execution interval carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PhaseKind {
    /// Input transfer from the job's origin edge to a cloud processor.
    Uplink,
    /// Computation on the target unit.
    Compute,
    /// Output transfer back from the cloud to the origin edge.
    Downlink,
}

impl PhaseKind {
    /// Short lowercase label used in trace/metric output.
    pub fn label(self) -> &'static str {
        match self {
            PhaseKind::Uplink => "uplink",
            PhaseKind::Compute => "compute",
            PhaseKind::Downlink => "downlink",
        }
    }
}

/// One structured event from the engine or a policy.
///
/// Job and unit identifiers are plain indices into the instance being
/// simulated; times are virtual [`Time`]s except for `DecideEnd::wall`,
/// which is real (wall-clock) policy latency.
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// Simulation begins.
    RunStart {
        /// Policy display name.
        policy: String,
        /// Number of jobs in the instance.
        jobs: usize,
        /// Number of edge units.
        edges: usize,
        /// Number of cloud processors.
        clouds: usize,
    },
    /// A job's release date was reached.
    JobReleased {
        /// Virtual time of the release.
        t: Time,
        /// Released job index.
        job: usize,
    },
    /// A job was submitted to a running session (streaming mode only:
    /// batch construction does not emit this).
    JobSubmitted {
        /// Virtual time of the submission.
        t: Time,
        /// Submitted job index.
        job: usize,
    },
    /// The policy's `decide` is about to run.
    DecideStart {
        /// Virtual time of the decision point.
        t: Time,
        /// Jobs released but not yet completed.
        pending: usize,
    },
    /// The policy call was skipped by decision-epoch gating: no
    /// decision-relevant state changed since the last invoked decide, so
    /// the engine reused the previous directives.
    DecideSkipped {
        /// Virtual time of the decision point.
        t: Time,
        /// Jobs released but not yet completed.
        pending: usize,
    },
    /// The policy's `decide` returned.
    DecideEnd {
        /// Virtual time of the decision point.
        t: Time,
        /// Wall-clock time the call took.
        wall: Duration,
        /// Number of directives returned.
        directives: usize,
    },
    /// An activity interval was committed to a resource.
    Placed {
        /// Job the interval belongs to.
        job: usize,
        /// Origin edge unit of the job.
        origin: usize,
        /// Resource the interval occupies.
        target: Unit,
        /// Kind of work performed.
        phase: PhaseKind,
        /// The occupied `[start, end)` virtual-time interval.
        interval: Interval,
        /// Communication volume carried (0 for compute phases).
        volume: f64,
    },
    /// A running job was preempted and will restart from scratch.
    Restarted {
        /// Virtual time of the restart.
        t: Time,
        /// Restarted job index.
        job: usize,
        /// Unit the job was running on.
        from: Unit,
        /// Unit the job will run on next.
        to: Unit,
    },
    /// A job finished (downlink delivered / local compute done).
    Completed {
        /// Virtual completion time.
        t: Time,
        /// Completed job index.
        job: usize,
        /// Response time `completion − release` in virtual seconds.
        response: f64,
        /// Achieved stretch: response divided by the job's fastest
        /// possible execution time on the platform.
        stretch: f64,
    },
    /// A unit crashed (fault injection): in-flight work on it is lost.
    UnitDown {
        /// Virtual time of the crash.
        t: Time,
        /// The failed unit.
        unit: Unit,
    },
    /// A crashed unit recovered and accepts work again.
    UnitUp {
        /// Virtual time of the recovery.
        t: Time,
        /// The recovered unit.
        unit: Unit,
    },
    /// An edge's communication link changed capacity (fault injection).
    LinkDegraded {
        /// Virtual time of the change.
        t: Time,
        /// Edge unit whose uplink/downlink pair is affected.
        edge: usize,
        /// New capacity factor: `0.0` outage, `1.0` fully recovered.
        factor: f64,
    },
    /// A job's in-flight work was wiped by a unit crash; the job is
    /// re-released and will re-execute from scratch.
    JobKilled {
        /// Virtual time of the kill.
        t: Time,
        /// Killed job index.
        job: usize,
        /// The unit whose crash caused the kill.
        unit: Unit,
    },
    /// One feasibility probe of SSF-EDF's stretch binary search.
    BinarySearchProbe {
        /// Virtual time of the enclosing decision.
        t: Time,
        /// Stretch value probed.
        stretch: f64,
        /// Whether a feasible plan exists at that stretch.
        feasible: bool,
    },
    /// The platform's permanent shape changed: a committed platform
    /// mutation (elastic join/leave, link or speed re-provisioning).
    /// Temporary fault windows emit `UnitDown`/`UnitUp`/`LinkDegraded`
    /// instead.
    PlatformChanged {
        /// Virtual time of the mutation.
        t: Time,
        /// Platform version after the mutation.
        version: u64,
        /// Stable kebab-case operation name (`"add-edge"`,
        /// `"remove-cloud"`, `"set-link"`, ...).
        op: &'static str,
        /// The unit the mutation concerns (for adds: the joining unit).
        unit: Unit,
    },
    /// Simulation finished.
    RunEnd {
        /// Final virtual time (makespan).
        makespan: Time,
    },
}

impl Event {
    /// Short kebab-case tag naming the event variant (stable; used in
    /// docs, JSON output, and tests).
    pub fn tag(&self) -> &'static str {
        match self {
            Event::RunStart { .. } => "run-start",
            Event::JobReleased { .. } => "job-released",
            Event::JobSubmitted { .. } => "job-submitted",
            Event::DecideStart { .. } => "decide-start",
            Event::DecideSkipped { .. } => "decide-skipped",
            Event::DecideEnd { .. } => "decide-end",
            Event::Placed { .. } => "placed",
            Event::Restarted { .. } => "restarted",
            Event::Completed { .. } => "completed",
            Event::UnitDown { .. } => "unit-down",
            Event::UnitUp { .. } => "unit-up",
            Event::LinkDegraded { .. } => "link-degraded",
            Event::JobKilled { .. } => "job-killed",
            Event::BinarySearchProbe { .. } => "binary-search-probe",
            Event::PlatformChanged { .. } => "platform-changed",
            Event::RunEnd { .. } => "run-end",
        }
    }
}

/// Receiver of simulation [`Event`]s.
///
/// Implementations must tolerate events arriving in virtual-time order
/// per source but interleaved across sources (policy probes arrive inside
/// the enclosing `DecideStart`/`DecideEnd` pair).
pub trait Observer {
    /// Called once per emitted event.
    fn on_event(&mut self, event: &Event);
}

/// Observer that discards every event. Useful for measuring dispatch
/// overhead and as a placeholder.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullObserver;

impl Observer for NullObserver {
    fn on_event(&mut self, _event: &Event) {}
}

/// Broadcasts each event to every contained observer, in order.
#[derive(Default)]
pub struct Fanout {
    sinks: Vec<Box<dyn Observer>>,
}

impl Fanout {
    /// An empty fanout.
    pub fn new() -> Self {
        Fanout::default()
    }

    /// Adds a sink (builder style).
    pub fn with(mut self, sink: Box<dyn Observer>) -> Self {
        self.sinks.push(sink);
        self
    }

    /// Adds a sink.
    pub fn push(&mut self, sink: Box<dyn Observer>) {
        self.sinks.push(sink);
    }

    /// Number of sinks.
    pub fn len(&self) -> usize {
        self.sinks.len()
    }

    /// True when no sinks are registered.
    pub fn is_empty(&self) -> bool {
        self.sinks.is_empty()
    }
}

impl Observer for Fanout {
    fn on_event(&mut self, event: &Event) {
        for sink in &mut self.sinks {
            sink.on_event(event);
        }
    }
}

/// Shared single-threaded handle to an observer.
///
/// The engine borrows its observer mutably for the whole run, but some
/// events originate *inside* the policy (e.g. SSF-EDF's binary-search
/// probes). `Shared` lets one recorder be handed to both: clone the
/// handle, give one clone to the policy via
/// `OnlineScheduler::attach_observer`, and pass the other to the engine.
pub struct Shared<O: ?Sized>(Rc<RefCell<O>>);

impl<O> Shared<O> {
    /// Wraps an observer for shared access.
    pub fn new(observer: O) -> Self {
        Shared(Rc::new(RefCell::new(observer)))
    }

    /// Consumes the handle and returns the observer, if this is the last
    /// handle.
    pub fn try_unwrap(self) -> Result<O, Shared<O>> {
        Rc::try_unwrap(self.0)
            .map(RefCell::into_inner)
            .map_err(Shared)
    }
}

impl<O: ?Sized> Shared<O> {
    /// Runs `f` with a mutable borrow of the observer.
    pub fn with<T>(&self, f: impl FnOnce(&mut O) -> T) -> T {
        f(&mut self.0.borrow_mut())
    }
}

impl<O: ?Sized> fmt::Debug for Shared<O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shared(<observer>)")
    }
}

impl<O: Observer + 'static> Shared<O> {
    /// Type-erased clone of this handle, suitable for
    /// `OnlineScheduler::attach_observer`.
    pub fn handle(&self) -> ObserverHandle {
        Shared(self.0.clone() as Rc<RefCell<dyn Observer>>)
    }
}

impl<O: ?Sized> Clone for Shared<O> {
    fn clone(&self) -> Self {
        Shared(self.0.clone())
    }
}

impl<O: Observer + ?Sized> Observer for Shared<O> {
    fn on_event(&mut self, event: &Event) {
        self.0.borrow_mut().on_event(event);
    }
}

/// Type-erased shared observer handle (see [`Shared::handle`]).
pub type ObserverHandle = Shared<dyn Observer>;

/// Mirrors an event to `tracing` subscribers (only with the `tracing`
/// feature; a no-op build of the macro set otherwise).
#[cfg(feature = "tracing")]
pub fn forward_to_tracing(event: &Event) {
    tracing::event!(tracing::Level::DEBUG, "{:?}", event);
}

/// Observer that forwards every event to `tracing` subscribers.
#[cfg(feature = "tracing")]
#[derive(Clone, Copy, Debug, Default)]
pub struct TracingObserver;

#[cfg(feature = "tracing")]
impl Observer for TracingObserver {
    fn on_event(&mut self, event: &Event) {
        forward_to_tracing(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Counter(usize);

    impl Observer for Counter {
        fn on_event(&mut self, _event: &Event) {
            self.0 += 1;
        }
    }

    fn sample_event() -> Event {
        Event::JobReleased {
            t: Time::new(1.0),
            job: 3,
        }
    }

    #[test]
    fn fanout_broadcasts_in_order() {
        let a = Shared::new(Counter(0));
        let b = Shared::new(Counter(0));
        let mut fan = Fanout::new()
            .with(Box::new(a.clone()))
            .with(Box::new(b.clone()));
        assert_eq!(fan.len(), 2);
        for _ in 0..5 {
            fan.on_event(&sample_event());
        }
        assert_eq!(a.with(|c| c.0), 5);
        assert_eq!(b.with(|c| c.0), 5);
    }

    #[test]
    fn shared_handle_feeds_the_same_observer() {
        let shared = Shared::new(Counter(0));
        let mut erased = shared.handle();
        erased.on_event(&sample_event());
        shared.clone().on_event(&sample_event());
        assert_eq!(shared.with(|c| c.0), 2);
    }

    #[test]
    fn event_tags_are_stable() {
        assert_eq!(sample_event().tag(), "job-released");
        assert_eq!(
            Event::RunEnd {
                makespan: Time::ZERO
            }
            .tag(),
            "run-end"
        );
    }

    #[test]
    fn unit_display() {
        assert_eq!(Unit::Edge(2).to_string(), "edge-2");
        assert_eq!(Unit::Cloud(0).to_string(), "cloud-0");
        assert_eq!(PhaseKind::Uplink.label(), "uplink");
    }
}
