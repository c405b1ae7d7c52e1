//! Placement targets, phases, and scheduler directives.

use crate::job::Job;
use crate::resource::{ResourceId, ResourcePair};
use crate::spec::{CloudId, PlatformSpec};
use mmsec_sim::time::approx::positive;
use std::fmt;

/// Where a job is (to be) executed: `alloc(i)` in the paper — 0 for the
/// local edge processor, `k` for cloud processor `k`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Target {
    /// Execute locally on the origin edge unit.
    Edge,
    /// Delegate to cloud processor `k`.
    Cloud(CloudId),
}

impl fmt::Display for Target {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Target::Edge => write!(f, "edge"),
            Target::Cloud(k) => write!(f, "cloud:{}", k.0),
        }
    }
}

/// The phase a job is currently in on its committed target.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Uplink communication (cloud targets only).
    Uplink,
    /// Computation (edge or cloud).
    Compute,
    /// Downlink communication (cloud targets only).
    Downlink,
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Phase::Uplink => write!(f, "up"),
            Phase::Compute => write!(f, "exec"),
            Phase::Downlink => write!(f, "down"),
        }
    }
}

impl Phase {
    /// The phase a run on `target` starts with when volumes `(up, work,
    /// dn)` are left: compute only on the edge, uplink → compute →
    /// downlink on a cloud, skipping phases with (approximately) no
    /// volume. `None` when nothing remains.
    #[inline]
    pub fn first(target: Target, (up, work, dn): (f64, f64, f64)) -> Option<Phase> {
        match target {
            Target::Edge => positive(work).then_some(Phase::Compute),
            Target::Cloud(_) if positive(up) => Some(Phase::Uplink),
            Target::Cloud(_) if positive(work) => Some(Phase::Compute),
            Target::Cloud(_) => positive(dn).then_some(Phase::Downlink),
        }
    }

    /// Resources occupied while running phase `self` of `job` on `target`.
    pub fn resources(self, job: &Job, target: Target) -> ResourcePair {
        match (target, self) {
            (Target::Edge, Phase::Compute) => ResourcePair::single(ResourceId::EdgeCpu(job.origin)),
            (Target::Edge, _) => unreachable!("edge jobs have no communication phases"),
            (Target::Cloud(k), Phase::Uplink) => {
                ResourcePair::pair(ResourceId::EdgeOut(job.origin), ResourceId::CloudIn(k))
            }
            (Target::Cloud(k), Phase::Compute) => ResourcePair::single(ResourceId::CloudCpu(k)),
            (Target::Cloud(k), Phase::Downlink) => {
                ResourcePair::pair(ResourceId::CloudOut(k), ResourceId::EdgeIn(job.origin))
            }
        }
    }

    /// Progress rate of the phase on `target`: work units per second for
    /// computations; for communications, the volume completed per second
    /// along the route — exactly 1 on the flat platform, `1 / path` on a
    /// continuum platform (so a transfer's duration is its volume times
    /// the multi-hop path factor).
    pub fn rate(self, job: &Job, target: Target, spec: &PlatformSpec) -> f64 {
        match (target, self) {
            (Target::Edge, Phase::Compute) => spec.edge_speed(job.origin),
            (Target::Cloud(k), Phase::Compute) => spec.cloud_speed(k),
            (Target::Cloud(k), Phase::Uplink) => spec.comm_rate_up(k),
            (Target::Cloud(k), Phase::Downlink) => spec.comm_rate_dn(k),
            (Target::Edge, Phase::Uplink) | (Target::Edge, Phase::Downlink) => 1.0,
        }
    }
}

/// One entry of the prioritized list a scheduler returns at each event:
/// "job `job` should (continue to) run on `target`".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Directive {
    /// The job concerned.
    pub job: crate::job::JobId,
    /// Where it should run.
    pub target: Target,
}

impl Directive {
    /// Convenience constructor.
    pub fn new(job: crate::job::JobId, target: Target) -> Self {
        Directive { job, target }
    }
}

/// Reusable, engine-owned buffer a scheduler fills at each decision.
///
/// The engine allocates one buffer per run, clears it before every
/// [`crate::engine::OnlineScheduler::decide`] call, and hands the policy a
/// `&mut` — so the decide hot path performs no per-event allocation for
/// the directive list (the backing `Vec` reaches its high-water capacity
/// after a few events and is reused from then on).
///
/// Directives are prioritized in push order, exactly like the `Vec` the
/// old contract returned.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DirectiveBuffer {
    items: Vec<Directive>,
}

impl DirectiveBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        DirectiveBuffer::default()
    }

    /// Drops every directive, keeping the allocation.
    pub fn clear(&mut self) {
        self.items.clear();
    }

    /// Appends "job should (continue to) run on target" with the next
    /// lower priority.
    pub fn push(&mut self, job: crate::job::JobId, target: Target) {
        self.items.push(Directive::new(job, target));
    }

    /// Appends an already-built directive.
    pub fn push_directive(&mut self, d: Directive) {
        self.items.push(d);
    }

    /// Number of buffered directives.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when no directive is buffered.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The prioritized directive list.
    pub fn as_slice(&self) -> &[Directive] {
        &self.items
    }

    /// Mutable access (the engine rewrites targets of refused retargets).
    pub fn as_mut_slice(&mut self) -> &mut [Directive] {
        &mut self.items
    }

    /// Keeps only the directives satisfying `keep`, preserving order.
    pub fn retain(&mut self, keep: impl FnMut(&Directive) -> bool) {
        self.items.retain(keep);
    }

    /// Iterates over the buffered directives in priority order.
    pub fn iter(&self) -> impl Iterator<Item = &Directive> {
        self.items.iter()
    }
}

impl<'a> IntoIterator for &'a DirectiveBuffer {
    type Item = &'a Directive;
    type IntoIter = std::slice::Iter<'a, Directive>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::EdgeId;

    fn job() -> Job {
        Job::new(EdgeId(1), 0.0, 2.0, 1.0, 0.5)
    }

    fn spec() -> PlatformSpec {
        PlatformSpec::builder()
            .edges(vec![0.5, 0.25])
            .clouds(vec![1.0, 2.0])
            .build()
    }

    #[test]
    fn resources_per_phase() {
        let j = job();
        let up = Phase::Uplink.resources(&j, Target::Cloud(CloudId(1)));
        assert_eq!(up.primary, ResourceId::EdgeOut(EdgeId(1)));
        assert_eq!(up.secondary, Some(ResourceId::CloudIn(CloudId(1))));

        let ex = Phase::Compute.resources(&j, Target::Cloud(CloudId(0)));
        assert_eq!(ex.primary, ResourceId::CloudCpu(CloudId(0)));
        assert_eq!(ex.secondary, None);

        let dn = Phase::Downlink.resources(&j, Target::Cloud(CloudId(0)));
        assert_eq!(dn.primary, ResourceId::CloudOut(CloudId(0)));
        assert_eq!(dn.secondary, Some(ResourceId::EdgeIn(EdgeId(1))));

        let local = Phase::Compute.resources(&j, Target::Edge);
        assert_eq!(local.primary, ResourceId::EdgeCpu(EdgeId(1)));
    }

    #[test]
    fn rates() {
        let j = job();
        let s = spec();
        assert_eq!(Phase::Compute.rate(&j, Target::Edge, &s), 0.25);
        assert_eq!(Phase::Compute.rate(&j, Target::Cloud(CloudId(1)), &s), 2.0);
        assert_eq!(Phase::Uplink.rate(&j, Target::Cloud(CloudId(0)), &s), 1.0);
        assert_eq!(Phase::Downlink.rate(&j, Target::Cloud(CloudId(0)), &s), 1.0);
    }

    #[test]
    #[should_panic(expected = "no communication phases")]
    fn edge_uplink_is_invalid() {
        let _ = Phase::Uplink.resources(&job(), Target::Edge);
    }

    #[test]
    fn target_display() {
        assert_eq!(Target::Edge.to_string(), "edge");
        assert_eq!(Target::Cloud(CloudId(3)).to_string(), "cloud:3");
    }
}
