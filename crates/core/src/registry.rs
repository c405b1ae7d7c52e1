//! Name-based construction of scheduling policies (used by the experiment
//! harness and the `repro` CLI).

use crate::baselines::{CloudOnly, Fcfs, RandomSticky};
use crate::edge_only::EdgeOnly;
use crate::greedy::Greedy;
use crate::srpt::Srpt;
use crate::ssf_edf::SsfEdf;
use mmsec_platform::{DirectiveBuffer, Instance, ObserverHandle, OnlineScheduler, SimView};

/// The policies of the paper's evaluation (§VI) plus the extra baselines.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// §V-A baseline.
    EdgeOnly,
    /// §V-B.
    Greedy,
    /// §V-C.
    Srpt,
    /// §V-D (the paper's best heuristic).
    SsfEdf,
    /// Extra baseline: first-come-first-served, sticky best placement.
    Fcfs,
    /// Extra baseline: everything delegated to the cloud.
    CloudOnly,
    /// Extra baseline: random sticky placement.
    Random,
}

impl PolicyKind {
    /// The four policies evaluated in the paper, in presentation order.
    pub const PAPER: [PolicyKind; 4] = [
        PolicyKind::EdgeOnly,
        PolicyKind::Greedy,
        PolicyKind::Srpt,
        PolicyKind::SsfEdf,
    ];

    /// The cloud-using policies of Figure 2(b) (Edge-Only is off-scale
    /// under load and omitted by the paper).
    pub const CLOUD_USING: [PolicyKind; 3] =
        [PolicyKind::Greedy, PolicyKind::Srpt, PolicyKind::SsfEdf];

    /// All policies known to the registry.
    pub const ALL: [PolicyKind; 7] = [
        PolicyKind::EdgeOnly,
        PolicyKind::Greedy,
        PolicyKind::Srpt,
        PolicyKind::SsfEdf,
        PolicyKind::Fcfs,
        PolicyKind::CloudOnly,
        PolicyKind::Random,
    ];

    /// Canonical name.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::EdgeOnly => "edge-only",
            PolicyKind::Greedy => "greedy",
            PolicyKind::Srpt => "srpt",
            PolicyKind::SsfEdf => "ssf-edf",
            PolicyKind::Fcfs => "fcfs",
            PolicyKind::CloudOnly => "cloud-only",
            PolicyKind::Random => "random",
        }
    }

    /// Parses a canonical name.
    pub fn parse(name: &str) -> Option<PolicyKind> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Instantiates the policy with default parameters (`seed` is only
    /// used by stochastic policies).
    pub fn build(self, seed: u64) -> Box<dyn OnlineScheduler> {
        match self {
            PolicyKind::EdgeOnly => Box::new(EdgeOnly::new()),
            PolicyKind::Greedy => Box::new(Greedy::new()),
            PolicyKind::Srpt => Box::new(Srpt::new()),
            PolicyKind::SsfEdf => Box::new(SsfEdf::new()),
            PolicyKind::Fcfs => Box::new(Fcfs::new()),
            PolicyKind::CloudOnly => Box::new(CloudOnly::new()),
            PolicyKind::Random => Box::new(RandomSticky::new(seed)),
        }
    }

    /// Instantiates the policy in *reference* mode: incremental state
    /// maintenance and decision-epoch gating disabled, so every event
    /// triggers a full recompute. Schedules must be bit-identical to
    /// [`PolicyKind::build`] — the equivalence proptests compare the two.
    pub fn build_reference(self, seed: u64) -> Box<dyn OnlineScheduler> {
        let policy: Box<dyn OnlineScheduler> = match self {
            PolicyKind::EdgeOnly => Box::new(EdgeOnly::new().with_recompute()),
            PolicyKind::SsfEdf => Box::new(SsfEdf::new().with_recompute()),
            other => other.build(seed),
        };
        Box::new(EveryEvent(policy))
    }
}

/// Forwards to a policy but keeps the default
/// [`DecisionCadence::EveryEvent`](mmsec_platform::DecisionCadence::EveryEvent),
/// so the engine invokes its `decide` at every event.
struct EveryEvent(Box<dyn OnlineScheduler>);

impl OnlineScheduler for EveryEvent {
    fn name(&self) -> String {
        self.0.name()
    }

    fn on_start(&mut self, instance: &Instance) {
        self.0.on_start(instance);
    }

    fn on_retire(&mut self, instance: &Instance) {
        self.0.on_retire(instance);
    }

    fn decide(&mut self, view: &SimView<'_>, out: &mut DirectiveBuffer) {
        self.0.decide(view, out);
    }

    fn attach_observer(&mut self, observer: ObserverHandle) {
        self.0.attach_observer(observer);
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip() {
        for kind in PolicyKind::ALL {
            assert_eq!(PolicyKind::parse(kind.name()), Some(kind));
            assert_eq!(kind.to_string(), kind.name());
        }
        assert_eq!(PolicyKind::parse("nope"), None);
    }

    #[test]
    fn build_produces_matching_names() {
        for kind in PolicyKind::ALL {
            let policy = kind.build(1);
            assert_eq!(policy.name(), kind.name());
        }
    }

    #[test]
    fn paper_set_is_a_subset_of_all() {
        for kind in PolicyKind::PAPER {
            assert!(PolicyKind::ALL.contains(&kind));
        }
        for kind in PolicyKind::CLOUD_USING {
            assert!(PolicyKind::PAPER.contains(&kind));
        }
    }
}
