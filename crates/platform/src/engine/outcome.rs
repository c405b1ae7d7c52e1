//! Run results: statistics, outcomes, and failure modes of a simulation.

use crate::job::JobId;
use crate::schedule::Schedule;
use mmsec_sim::Time;
use std::fmt;
use std::time::Duration;

/// Failure modes of a simulation run.
#[derive(Clone, Debug, PartialEq)]
pub enum EngineError {
    /// No activity and no future event, yet jobs are unfinished: the
    /// scheduler stopped scheduling them.
    Stalled {
        /// Virtual time of the stall.
        time: Time,
        /// Jobs that can never finish.
        pending: Vec<JobId>,
    },
    /// The event cap was exceeded (scheduler livelock).
    EventLimit {
        /// The cap that was hit.
        limit: u64,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Stalled { time, pending } => write!(
                f,
                "simulation stalled at t={time}: {} job(s) unscheduled",
                pending.len()
            ),
            EngineError::EventLimit { limit } => {
                write!(f, "event limit {limit} exceeded (livelocked scheduler?)")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Run statistics, including the scheduling-time measurements of §VI-B.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunStats {
    /// Number of decision events.
    pub events: u64,
    /// Number of events at which `scheduler.decide` was actually invoked.
    /// Always `events` unless decision-epoch gating skipped some (see
    /// [`DecisionCadence::OnEpochChange`](super::DecisionCadence::OnEpochChange));
    /// `decides + decide_skips == events`.
    pub decides: u64,
    /// Number of events at which the policy call was skipped because no
    /// decision-relevant state had changed since the last invoked decide.
    pub decide_skips: u64,
    /// Total wall-clock time spent inside `scheduler.decide`.
    pub decide_time: Duration,
    /// Total wall-clock time of the simulation.
    pub total_time: Duration,
    /// Total number of job re-executions.
    pub restarts: u64,
}

/// A successful simulation run.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// The produced schedule.
    pub schedule: Schedule,
    /// Statistics.
    pub stats: RunStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let stalled = EngineError::Stalled {
            time: Time::new(3.0),
            pending: vec![JobId(0), JobId(2)],
        };
        assert_eq!(
            stalled.to_string(),
            "simulation stalled at t=3: 2 job(s) unscheduled"
        );
        let limit = EngineError::EventLimit { limit: 42 };
        assert!(limit.to_string().contains("event limit 42"));
    }
}
