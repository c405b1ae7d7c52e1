//! `mmsec-platform` — the edge-cloud platform model, event-driven
//! simulation engine, schedule validity checker, and metrics for
//! *Max-Stretch Minimization on an Edge-Cloud Platform* (Benoit, Elghazi,
//! Robert — IPDPS 2021).
//!
//! # Model (paper §III)
//!
//! A two-level platform couples `P^e` edge computing units (speeds
//! `s_j ≤ 1`) with `P^c` cloud processors (speed 1). Each job originates at
//! an edge unit and either runs locally or is delegated to a cloud
//! processor, paying preemptible uplink/downlink communications under the
//! one-port full-duplex model. The objective is to minimize the maximum
//! stretch `S_i = (C_i − r_i) / min(t^e_i, t^c_i)`.
//!
//! # Quick tour
//!
//! * [`instance::Instance`] — platform + jobs;
//! * [`engine::Simulation`] — run an [`engine::OnlineScheduler`] policy
//!   (batch), or open a resumable [`engine::Session`] for streaming;
//! * [`validate::validate`] — check every §III-B constraint;
//! * [`metrics::StretchReport`] — the objective function;
//! * [`projection::Projection`] — completion-time forecasts for policies.

#![warn(missing_docs)]

pub mod activity;
pub mod engine;
pub mod export;
pub mod instance;
pub mod job;
pub mod metrics;
pub mod projection;
pub mod render;
pub mod resource;
pub mod schedule;
pub mod spec;
pub mod state;
pub mod stats;
pub mod svg;
pub mod tier;
pub mod validate;
pub mod view;

pub use activity::{Directive, DirectiveBuffer, Phase, Target};
pub use engine::{
    DecisionCadence, EngineError, EngineOptions, OnlineScheduler, RunOutcome, RunStats, Session,
    SessionStats, SessionStatus, Simulation,
};
// Observability surface (see `mmsec-obs` and `docs/observability.md`).
pub use instance::{figure1_instance, Instance, InstanceBuilder, InstanceError};
pub use job::{Job, JobId};
pub use metrics::{max_stretch, StretchReport};
// Fault-injection surface (see `mmsec-faults` and `docs/faults.md`).
pub use mmsec_faults as faults;
pub use mmsec_faults::{FaultConfig, FaultPlan, LinkFaultModel, LinkWindow, UnitFaultModel};
pub use mmsec_obs as obs;
pub use mmsec_obs::{Observer, ObserverHandle};
pub use render::{gantt, GanttOptions};
pub use schedule::Schedule;
pub use spec::{CloudId, EdgeId, PlatformSpec, SpecBuilder};
pub use state::{JobArena, JobState, PlatformError, PlatformMutation, PlatformState};
pub use stats::{schedule_stats, ScheduleStats};
pub use tier::{TierClass, TierTopology};
pub use validate::{validate, validate_with, ValidateOptions, Violation};
pub use view::{Availability, PendingSet, SimView};
