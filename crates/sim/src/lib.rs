//! `mmsec-sim` — virtual-time substrate for the max-stretch edge-cloud
//! scheduling simulator.
//!
//! This crate holds the domain-agnostic pieces every other crate builds on:
//!
//! * [`time::Time`] — finite, totally ordered virtual time;
//! * [`interval::Interval`] / [`interval::IntervalSet`] — the disjoint
//!   interval families a schedule is made of (paper §III-B);
//! * [`event_queue::EventQueue`] — deterministic future-event list for the
//!   event-based algorithms of paper §V (binary-heap reference);
//! * [`calendar::CalendarQueue`] — the calendar/bucket variant with a
//!   bit-identical pop order, the engine's event queue;
//! * [`seed`] — deterministic seed derivation for reproducible experiments.

#![warn(missing_docs)]

pub mod calendar;
pub mod event_queue;
pub mod interval;
pub mod seed;
pub mod time;

pub use calendar::CalendarQueue;
pub use event_queue::EventQueue;
pub use interval::{Interval, IntervalSet};
pub use time::{Time, TIME_EPS};
