//! Platform description (paper §III-A).
//!
//! A two-level platform: `P^c` cloud processors (speed 1 in the paper; we
//! also support the heterogeneous-cloud extension mentioned in §II) and
//! `P^e` edge computing units with speeds `s_j ≤ 1`. The §VII future-work
//! extension — cloud processors dynamically unavailable during given time
//! windows — is supported through per-processor unavailability intervals.
//!
//! Beyond the paper, a spec may carry a [`TierTopology`]
//! (edge → fog → … → cloud chain with per-hop link-time factors, ROADMAP
//! item 3); a spec without one is the paper's *flat* platform, which is
//! bit-identical to a one-tier topology with unit hop factors. Specs are
//! built with [`PlatformSpec::builder`].

use crate::tier::TierTopology;
use mmsec_sim::{Interval, IntervalSet};
use std::fmt;

/// Index of an edge computing unit.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub usize);

/// Index of a cloud processor.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CloudId(pub usize);

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl fmt::Display for CloudId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// Errors raised by [`PlatformSpec::validate`].
#[derive(Clone, Debug, PartialEq)]
pub enum SpecError {
    /// The platform has no edge unit (jobs need an origin).
    NoEdgeUnit,
    /// A speed is non-positive or non-finite.
    BadSpeed {
        /// Human-readable resource name (`"edge 3"`, `"cloud 0"`).
        which: String,
        /// Offending value.
        speed: f64,
    },
    /// Unavailability windows refer to a cloud processor that does not exist.
    WindowOutOfRange {
        /// Offending cloud index.
        cloud: usize,
    },
    /// Two unavailability windows of one cloud processor overlap.
    OverlappingWindows {
        /// Offending cloud index.
        cloud: usize,
    },
    /// A tier hop's link-time factor is non-positive or non-finite (or
    /// the hop chain is empty).
    BadHop {
        /// Offending hop index.
        hop: usize,
        /// Offending value (NaN when the chain itself is empty).
        value: f64,
    },
    /// A cloud unit's tier assignment is out of the topology's range, or
    /// the assignment does not cover every unit.
    TierOutOfRange {
        /// Offending cloud index (or assignment length on a count
        /// mismatch).
        cloud: usize,
        /// Offending tier (0 on a count mismatch).
        tier: usize,
        /// The topology's depth.
        depth: usize,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::NoEdgeUnit => write!(f, "platform has no edge computing unit"),
            SpecError::BadSpeed { which, speed } => {
                write!(f, "non-positive speed {speed} for {which}")
            }
            SpecError::WindowOutOfRange { cloud } => {
                write!(
                    f,
                    "unavailability window for nonexistent cloud processor {cloud}"
                )
            }
            SpecError::OverlappingWindows { cloud } => {
                write!(
                    f,
                    "overlapping unavailability windows on cloud processor {cloud}"
                )
            }
            SpecError::BadHop { hop, value } => {
                write!(f, "tier hop {hop} has invalid link-time factor {value}")
            }
            SpecError::TierOutOfRange { cloud, tier, depth } => {
                write!(
                    f,
                    "cloud unit {cloud} assigned to tier {tier} outside 1..={depth}"
                )
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// The edge-cloud platform.
#[derive(Clone, Debug, PartialEq)]
pub struct PlatformSpec {
    edge_speeds: Vec<f64>,
    cloud_speeds: Vec<f64>,
    /// Per cloud processor: disjoint intervals during which its CPU cannot
    /// compute (§VII extension). Empty sets by default.
    cloud_unavailability: Vec<IntervalSet>,
    max_cloud_speed: f64,
    /// Continuum tier chain; `None` is the paper's flat platform (the
    /// engine's zero-cost fast path).
    tiers: Option<TierTopology>,
}

impl PlatformSpec {
    /// Starts a typed builder: edge units, tiers, cloud units, and
    /// unavailability windows in any mix. See [`SpecBuilder`].
    pub fn builder() -> SpecBuilder {
        SpecBuilder::default()
    }

    /// The one validated construction path: the builder and the instance
    /// parser both end here.
    pub(crate) fn try_from_parts(
        edge_speeds: Vec<f64>,
        cloud_speeds: Vec<f64>,
        mut tiers: Option<TierTopology>,
    ) -> Result<Self, SpecError> {
        let n_cloud = cloud_speeds.len();
        let max_cloud_speed = cloud_speeds.iter().copied().fold(0.0_f64, f64::max);
        if let Some(t) = &mut tiers {
            t.rebuild_classes(&cloud_speeds, &vec![true; n_cloud]);
        }
        let spec = PlatformSpec {
            edge_speeds,
            cloud_speeds,
            cloud_unavailability: vec![IntervalSet::new(); n_cloud],
            max_cloud_speed,
            tiers,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Adds unavailability windows for cloud processor `k` (§VII
    /// extension). Overlapping windows are merged-rejected by
    /// [`IntervalSet`]; panics on overlap.
    pub fn with_cloud_unavailability(mut self, k: CloudId, windows: &[Interval]) -> Self {
        for w in windows {
            self.add_cloud_unavailability(k, *w)
                .expect("overlapping unavailability windows");
        }
        self
    }

    /// Adds one unavailability window for cloud processor `k`, or
    /// returns the declared window it overlaps (the set is unchanged
    /// then).
    pub(crate) fn add_cloud_unavailability(
        &mut self,
        k: CloudId,
        window: Interval,
    ) -> Result<(), Interval> {
        assert!(k.0 < self.cloud_speeds.len(), "cloud index out of range");
        self.cloud_unavailability[k.0].insert(window)
    }

    /// Checks the platform invariants.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.edge_speeds.is_empty() {
            return Err(SpecError::NoEdgeUnit);
        }
        for (j, &s) in self.edge_speeds.iter().enumerate() {
            if !(s > 0.0 && s.is_finite()) {
                return Err(SpecError::BadSpeed {
                    which: format!("edge {j}"),
                    speed: s,
                });
            }
        }
        for (k, &s) in self.cloud_speeds.iter().enumerate() {
            if !(s > 0.0 && s.is_finite()) {
                return Err(SpecError::BadSpeed {
                    which: format!("cloud {k}"),
                    speed: s,
                });
            }
        }
        if self.cloud_unavailability.len() != self.cloud_speeds.len() {
            return Err(SpecError::WindowOutOfRange {
                cloud: self.cloud_unavailability.len(),
            });
        }
        if let Some(t) = &self.tiers {
            t.validate(self.cloud_speeds.len())?;
        }
        Ok(())
    }

    /// Number of edge computing units (`P^e`).
    pub fn num_edge(&self) -> usize {
        self.edge_speeds.len()
    }

    /// Number of cloud processors (`P^c`).
    pub fn num_cloud(&self) -> usize {
        self.cloud_speeds.len()
    }

    /// Speed of edge unit `j` (`s_j`).
    pub fn edge_speed(&self, j: EdgeId) -> f64 {
        self.edge_speeds[j.0]
    }

    /// Speed of cloud processor `k` (1 in the paper's model).
    pub fn cloud_speed(&self, k: CloudId) -> f64 {
        self.cloud_speeds[k.0]
    }

    /// Fastest cloud speed (0 when there is no cloud).
    pub fn max_cloud_speed(&self) -> f64 {
        self.max_cloud_speed
    }

    /// Aggregated speed `Σ_j s_j + Σ_k speed_k` (used by the load model,
    /// §VI-A).
    pub fn total_speed(&self) -> f64 {
        self.edge_speeds.iter().sum::<f64>() + self.cloud_speeds.iter().sum::<f64>()
    }

    /// True when every cloud processor runs at speed 1 (paper model).
    pub fn is_cloud_homogeneous(&self) -> bool {
        self.cloud_speeds.iter().all(|&s| s == 1.0)
    }

    /// Iterator over edge ids.
    pub fn edges(&self) -> impl Iterator<Item = EdgeId> {
        (0..self.num_edge()).map(EdgeId)
    }

    /// Iterator over cloud ids.
    pub fn clouds(&self) -> impl Iterator<Item = CloudId> {
        (0..self.num_cloud()).map(CloudId)
    }

    /// Unavailability windows of cloud processor `k`.
    pub fn cloud_unavailability(&self, k: CloudId) -> &IntervalSet {
        &self.cloud_unavailability[k.0]
    }

    /// True when any cloud processor has unavailability windows.
    pub fn has_unavailability(&self) -> bool {
        self.cloud_unavailability.iter().any(|w| !w.is_empty())
    }

    // ---- continuum tier accessors ----

    /// The tier topology, when this platform is a multi-tier continuum
    /// (`None` for the paper's flat platform).
    pub fn tier_topology(&self) -> Option<&TierTopology> {
        self.tiers.as_ref()
    }

    /// True when a tier topology is attached.
    pub fn has_tiers(&self) -> bool {
        self.tiers.is_some()
    }

    /// Number of remote tiers: 1 for the flat platform (its single cloud
    /// pool), the topology's depth otherwise.
    pub fn tier_depth(&self) -> usize {
        self.tiers.as_ref().map_or(1, |t| t.depth())
    }

    /// Tier of cloud unit `k` (1 on the flat platform).
    pub fn cloud_tier(&self, k: CloudId) -> usize {
        self.tiers.as_ref().map_or(1, |t| t.tier_of(k))
    }

    /// Uplink path factor toward cloud `k`: a transfer of volume `v`
    /// takes `v * path_up(k)` seconds of link time. Exactly `1.0` on the
    /// flat platform.
    #[inline]
    pub fn path_up(&self, k: CloudId) -> f64 {
        match &self.tiers {
            None => 1.0,
            Some(t) => t.path_up(k),
        }
    }

    /// Downlink path factor from cloud `k` (see [`PlatformSpec::path_up`]).
    #[inline]
    pub fn path_dn(&self, k: CloudId) -> f64 {
        match &self.tiers {
            None => 1.0,
            Some(t) => t.path_dn(k),
        }
    }

    /// Uplink progress rate toward cloud `k` (`1 / path_up`): the volume
    /// a transfer completes per second. Exactly `1.0` on the flat
    /// platform — the engine's historical constant comm rate.
    #[inline]
    pub fn comm_rate_up(&self, k: CloudId) -> f64 {
        match &self.tiers {
            None => 1.0,
            Some(t) => t.rate_up(k),
        }
    }

    /// Downlink progress rate from cloud `k` (`1 / path_dn`).
    #[inline]
    pub fn comm_rate_dn(&self, k: CloudId) -> f64 {
        match &self.tiers {
            None => 1.0,
            Some(t) => t.rate_dn(k),
        }
    }

    // Mutators below are crate-private: the only sanctioned way to change
    // a platform after construction is through
    // [`crate::state::PlatformState`], which validates each mutation and
    // versions the result.

    /// Appends an edge unit and returns its id. The speed must already be
    /// validated by the caller.
    pub(crate) fn push_edge(&mut self, speed: f64) -> EdgeId {
        self.edge_speeds.push(speed);
        EdgeId(self.edge_speeds.len() - 1)
    }

    /// Appends a cloud processor (no unavailability windows) and returns
    /// its id. On a tiered platform the unit joins the deepest tier. The
    /// speed must already be validated by the caller, and
    /// `max_cloud_speed` (plus the tier pricing classes) refreshed
    /// afterwards (tombstoned processors must not count, and only the
    /// caller knows liveness).
    pub(crate) fn push_cloud(&mut self, speed: f64) -> CloudId {
        self.cloud_speeds.push(speed);
        self.cloud_unavailability.push(IntervalSet::new());
        if let Some(t) = &mut self.tiers {
            t.push_cloud_deepest();
        }
        CloudId(self.cloud_speeds.len() - 1)
    }

    /// Overwrites edge `j`'s speed. The speed must already be validated.
    pub(crate) fn set_edge_speed(&mut self, j: EdgeId, speed: f64) {
        self.edge_speeds[j.0] = speed;
    }

    /// Overwrites cloud `k`'s speed. The speed must already be validated,
    /// and `max_cloud_speed` (plus tier classes) refreshed afterwards.
    pub(crate) fn set_cloud_speed(&mut self, k: CloudId, speed: f64) {
        self.cloud_speeds[k.0] = speed;
    }

    /// Overwrites the cached fastest-cloud speed. The stretch denominator
    /// (`Job::min_time`) reads this; [`crate::state::PlatformState`] keeps
    /// it equal to the fastest *live* cloud so that departed processors
    /// stop inflating deadlines of jobs submitted after they left.
    pub(crate) fn set_max_cloud_speed(&mut self, speed: f64) {
        self.max_cloud_speed = speed;
    }

    /// Overwrites hop `t`'s link-time factors. The caller validates the
    /// factors, checks a topology is attached and `t` in range, and
    /// refreshes the pricing classes afterwards.
    pub(crate) fn set_hop(&mut self, t: usize, up: f64, dn: f64) {
        self.tiers
            .as_mut()
            .expect("set_hop on a flat platform")
            .set_hop(t, up, dn);
    }

    /// Rebuilds the tier pricing classes for the given liveness (no-op on
    /// a flat platform). The tiered analogue of
    /// [`PlatformSpec::set_max_cloud_speed`].
    pub(crate) fn refresh_tier_classes(&mut self, live: &[bool]) {
        if let Some(t) = &mut self.tiers {
            t.rebuild_classes(&self.cloud_speeds, live);
        }
    }
}

/// Typed, chainable construction of a [`PlatformSpec`].
///
/// Edge units first, then — for a continuum platform — alternate
/// [`SpecBuilder::tier`] (opening a new remote tier one hop deeper) with
/// cloud units, which attach to the most recently opened tier:
///
/// ```
/// use mmsec_platform::spec::PlatformSpec;
/// // Paper-flat: two edges, three speed-1 cloud processors.
/// let flat = PlatformSpec::builder().edges([0.5, 0.1]).cloud_pool(3).build();
/// assert!(!flat.has_tiers());
/// // Continuum: a fog tier (cheap links) and a cloud tier behind it.
/// let tiered = PlatformSpec::builder()
///     .edge(0.5)
///     .tier(0.5, 0.5)
///     .cloud(0.8)
///     .tier(2.0, 1.5)
///     .cloud_pool(2)
///     .build();
/// assert_eq!(tiered.tier_depth(), 2);
/// ```
///
/// Without any [`SpecBuilder::tier`] call the result is the paper's flat
/// platform (`has_tiers() == false`), bit-identical to the historical
/// positional constructors.
#[derive(Clone, Debug, Default)]
pub struct SpecBuilder {
    edge_speeds: Vec<f64>,
    cloud_speeds: Vec<f64>,
    /// Tier recorded per cloud: the number of `tier()` calls seen so far
    /// at add time (0 = added before any tier ⇒ only valid when the
    /// build stays flat).
    cloud_tiers: Vec<usize>,
    hops: Vec<(f64, f64)>,
    windows: Vec<(usize, Interval)>,
}

impl SpecBuilder {
    /// Adds one edge computing unit with the given speed.
    pub fn edge(mut self, speed: f64) -> Self {
        self.edge_speeds.push(speed);
        self
    }

    /// Adds edge units with the given speeds.
    pub fn edges(mut self, speeds: impl IntoIterator<Item = f64>) -> Self {
        self.edge_speeds.extend(speeds);
        self
    }

    /// Opens a new remote tier one hop deeper, with the given `(up, dn)`
    /// link-time factors for the new hop. Cloud units added afterwards
    /// attach to this tier.
    pub fn tier(mut self, hop_up: f64, hop_dn: f64) -> Self {
        self.hops.push((hop_up, hop_dn));
        self
    }

    /// Adds one cloud processor at the current tier.
    pub fn cloud(mut self, speed: f64) -> Self {
        self.cloud_speeds.push(speed);
        self.cloud_tiers.push(self.hops.len());
        self
    }

    /// Adds cloud processors with the given speeds at the current tier.
    pub fn clouds(mut self, speeds: impl IntoIterator<Item = f64>) -> Self {
        for s in speeds {
            self.cloud_speeds.push(s);
            self.cloud_tiers.push(self.hops.len());
        }
        self
    }

    /// Adds `n` speed-1 cloud processors (the paper's homogeneous pool)
    /// at the current tier.
    pub fn cloud_pool(self, n: usize) -> Self {
        self.clouds(std::iter::repeat(1.0).take(n))
    }

    /// Adds one cloud processor at an *explicit* tier (`1..=depth` once
    /// all `tier()` calls are in), regardless of the current tier cursor.
    /// Use this when unit ids must follow an external order (e.g. a
    /// parsed spec record) that does not group clouds by tier.
    pub fn cloud_at(mut self, speed: f64, tier: usize) -> Self {
        self.cloud_speeds.push(speed);
        self.cloud_tiers.push(tier);
        self
    }

    /// Adds an unavailability window for cloud processor `k` (§VII
    /// extension; indices refer to clouds in add order).
    pub fn unavailability(mut self, k: CloudId, window: Interval) -> Self {
        self.windows.push((k.0, window));
        self
    }

    /// Builds the spec, panicking on an invalid one — the historical
    /// positional-constructor contract.
    pub fn build(self) -> PlatformSpec {
        self.try_build().expect("invalid platform spec")
    }

    /// Builds the spec, returning the typed error on an invalid one.
    pub fn try_build(self) -> Result<PlatformSpec, SpecError> {
        let tiers = if self.hops.is_empty() {
            // `cloud_at` with an explicit tier but no hops would silently
            // build a flat platform — reject instead.
            if let Some((k, &t)) = self.cloud_tiers.iter().enumerate().find(|&(_, &t)| t != 0) {
                return Err(SpecError::TierOutOfRange {
                    cloud: k,
                    tier: t,
                    depth: 0,
                });
            }
            None
        } else {
            for (k, &t) in self.cloud_tiers.iter().enumerate() {
                if t == 0 {
                    return Err(SpecError::TierOutOfRange {
                        cloud: k,
                        tier: 0,
                        depth: self.hops.len(),
                    });
                }
            }
            Some(TierTopology::new(&self.hops, self.cloud_tiers)?)
        };
        let mut spec = PlatformSpec::try_from_parts(self.edge_speeds, self.cloud_speeds, tiers)?;
        for (k, w) in self.windows {
            if k >= spec.num_cloud() {
                return Err(SpecError::WindowOutOfRange { cloud: k });
            }
            spec.add_cloud_unavailability(CloudId(k), w)
                .map_err(|_| SpecError::OverlappingWindows { cloud: k })?;
        }
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmsec_sim::Time;

    #[test]
    fn paper_random_platform() {
        // §VI-A: 20 cloud processors, 10 slow edge (0.1), 10 fast edge (0.5).
        let mut speeds = vec![0.1; 10];
        speeds.extend(vec![0.5; 10]);
        let spec = PlatformSpec::builder().edges(speeds).cloud_pool(20).build();
        assert_eq!(spec.num_edge(), 20);
        assert_eq!(spec.num_cloud(), 20);
        assert!(spec.is_cloud_homogeneous());
        assert_eq!(spec.max_cloud_speed(), 1.0);
        assert!((spec.total_speed() - (1.0 + 5.0 + 20.0)).abs() < 1e-12);
        assert!(!spec.has_tiers());
        assert_eq!(spec.tier_depth(), 1);
    }

    #[test]
    fn heterogeneous_cloud() {
        let spec = PlatformSpec::builder()
            .edge(0.5)
            .clouds([1.0, 2.0, 0.5])
            .build();
        assert!(!spec.is_cloud_homogeneous());
        assert_eq!(spec.max_cloud_speed(), 2.0);
        assert_eq!(spec.cloud_speed(CloudId(1)), 2.0);
    }

    #[test]
    fn tiered_builder_assigns_paths() {
        let spec = PlatformSpec::builder()
            .edge(0.5)
            .tier(0.5, 0.25)
            .cloud(0.8)
            .tier(2.0, 1.0)
            .cloud_pool(2)
            .build();
        assert!(spec.has_tiers());
        assert_eq!(spec.tier_depth(), 2);
        assert_eq!(spec.cloud_tier(CloudId(0)), 1);
        assert_eq!(spec.cloud_tier(CloudId(2)), 2);
        assert_eq!(spec.path_up(CloudId(0)), 0.5);
        assert_eq!(spec.path_up(CloudId(1)), 2.5);
        assert_eq!(spec.path_dn(CloudId(1)), 1.25);
        assert_eq!(spec.comm_rate_up(CloudId(1)), 1.0 / 2.5);
        // Two pricing classes: (0.8 @ tier 1) and (1.0 @ tier 2).
        assert_eq!(spec.tier_topology().unwrap().classes().len(), 2);
    }

    #[test]
    fn flat_paths_are_exactly_one() {
        let spec = PlatformSpec::builder().edge(1.0).cloud_pool(1).build();
        assert_eq!(spec.path_up(CloudId(0)).to_bits(), 1.0f64.to_bits());
        assert_eq!(spec.comm_rate_dn(CloudId(0)).to_bits(), 1.0f64.to_bits());
        assert_eq!(spec.cloud_tier(CloudId(0)), 1);
    }

    #[test]
    fn cloud_before_first_tier_is_rejected() {
        let err = PlatformSpec::builder()
            .edge(1.0)
            .cloud(1.0)
            .tier(1.0, 1.0)
            .cloud(1.0)
            .try_build()
            .unwrap_err();
        assert!(matches!(err, SpecError::TierOutOfRange { cloud: 0, .. }));
    }

    #[test]
    fn validation_errors() {
        let bad = PlatformSpec {
            edge_speeds: vec![],
            cloud_speeds: vec![1.0],
            cloud_unavailability: vec![IntervalSet::new()],
            max_cloud_speed: 1.0,
            tiers: None,
        };
        assert_eq!(bad.validate(), Err(SpecError::NoEdgeUnit));

        let bad = PlatformSpec {
            edge_speeds: vec![0.0],
            cloud_speeds: vec![],
            cloud_unavailability: vec![],
            max_cloud_speed: 0.0,
            tiers: None,
        };
        assert!(matches!(bad.validate(), Err(SpecError::BadSpeed { .. })));
    }

    #[test]
    #[should_panic(expected = "invalid platform spec")]
    fn constructor_panics_on_bad_speed() {
        let _ = PlatformSpec::builder().edge(-1.0).cloud_pool(1).build();
    }

    #[test]
    fn bad_hop_rejected() {
        let err = PlatformSpec::builder()
            .edge(1.0)
            .tier(0.0, 1.0)
            .cloud(1.0)
            .try_build()
            .unwrap_err();
        assert!(matches!(err, SpecError::BadHop { hop: 0, .. }));
    }

    #[test]
    fn unavailability_windows() {
        let spec = PlatformSpec::builder()
            .edge(1.0)
            .cloud_pool(2)
            .unavailability(CloudId(1), Interval::new(Time::new(5.0), Time::new(10.0)))
            .build();
        assert!(spec.has_unavailability());
        assert!(spec.cloud_unavailability(CloudId(0)).is_empty());
        assert_eq!(spec.cloud_unavailability(CloudId(1)).len(), 1);
    }

    #[test]
    fn builder_rejects_overlapping_windows() {
        let err = PlatformSpec::builder()
            .edge(1.0)
            .cloud_pool(2)
            .unavailability(CloudId(1), Interval::from_secs(1.0, 5.0))
            .unavailability(CloudId(0), Interval::from_secs(3.0, 8.0))
            .unavailability(CloudId(1), Interval::from_secs(3.0, 8.0))
            .try_build()
            .unwrap_err();
        assert_eq!(err, SpecError::OverlappingWindows { cloud: 1 });
    }

    #[test]
    fn id_display() {
        assert_eq!(EdgeId(3).to_string(), "e3");
        assert_eq!(CloudId(0).to_string(), "c0");
    }
}
