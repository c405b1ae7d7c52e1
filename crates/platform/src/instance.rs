//! A problem instance: platform + jobs, with a dependency-free text format.
//!
//! The format is line-oriented so instances can be archived alongside
//! experiment outputs and diffed:
//!
//! ```text
//! # mmsec-instance v1
//! edge 0.5
//! edge 0.1
//! cloud 1
//! window 0 5 10
//! job 0 0 4 2 2        # origin release work up dn
//! ```
//!
//! Tiered (continuum) platforms serialize as `v2`, which adds `hop`
//! records (one per tier boundary, in route order: per-volume uplink and
//! downlink factors) and annotates each `cloud` with its tier:
//!
//! ```text
//! # mmsec-instance v2
//! edge 0.5
//! hop 1 1              # edge→tier-1 link factors (up dn)
//! hop 2.5 3            # tier-1→tier-2 link factors
//! cloud 1 1            # speed tier
//! cloud 4 2
//! job 0 0 4 2 2
//! ```
//!
//! The parser accepts both versions; flat instances keep emitting `v1`
//! byte-for-byte, so archived outputs stay diffable.

use crate::job::{Job, JobId};
use crate::spec::{CloudId, EdgeId, PlatformSpec, SpecBuilder, SpecError};
use crate::tier::TierTopology;
use mmsec_sim::{Interval, Time};
use std::fmt;

/// Errors raised while validating or parsing an instance.
#[derive(Clone, Debug, PartialEq)]
pub enum InstanceError {
    /// The platform spec is invalid.
    Spec(SpecError),
    /// A job references an edge unit that does not exist.
    OriginOutOfRange {
        /// Index of the offending job.
        job: usize,
        /// Its origin index.
        origin: usize,
    },
    /// A parse error with line number and message.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        message: String,
    },
}

impl InstanceError {
    /// A stable kebab-case identifier for this error class (the serve
    /// protocol's `reject` records carry it as their `code` field).
    pub fn code(&self) -> &'static str {
        match self {
            InstanceError::Spec(_) => "bad-spec",
            InstanceError::OriginOutOfRange { .. } => "origin-out-of-range",
            InstanceError::Parse { .. } => "parse-error",
        }
    }
}

impl fmt::Display for InstanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstanceError::Spec(e) => write!(f, "platform: {e}"),
            InstanceError::OriginOutOfRange { job, origin } => {
                write!(
                    f,
                    "job {job} originates from nonexistent edge unit {origin}"
                )
            }
            InstanceError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for InstanceError {}

impl From<SpecError> for InstanceError {
    fn from(e: SpecError) -> Self {
        InstanceError::Spec(e)
    }
}

/// A complete MinMaxStretch-EdgeCloud instance.
#[derive(Clone, Debug, PartialEq)]
pub struct Instance {
    /// The platform.
    pub spec: PlatformSpec,
    /// The jobs, indexed by [`JobId`].
    pub jobs: Vec<Job>,
}

impl Instance {
    /// Creates and validates an instance. This is the low-level form for
    /// callers that already hold a [`PlatformSpec`] and a job vector;
    /// [`Instance::builder`] is the typed constructor for everything
    /// else.
    pub fn new(spec: PlatformSpec, jobs: Vec<Job>) -> Result<Self, InstanceError> {
        let inst = Instance { spec, jobs };
        inst.validate()?;
        Ok(inst)
    }

    /// Starts a typed builder: platform (edges, tiers, clouds, links,
    /// unavailability windows) and jobs in one chain.
    ///
    /// ```
    /// use mmsec_platform::Instance;
    /// let inst = Instance::builder()
    ///     .edge(0.5)
    ///     .tier(1.0, 1.0)
    ///     .cloud_pool(2)
    ///     .job(0, 0.0, 4.0, 2.0, 1.0)
    ///     .build();
    /// assert_eq!(inst.num_jobs(), 1);
    /// ```
    pub fn builder() -> InstanceBuilder {
        InstanceBuilder {
            spec: PlatformSpec::builder(),
            jobs: Vec::new(),
        }
    }

    /// Checks platform validity and job/platform consistency.
    pub fn validate(&self) -> Result<(), InstanceError> {
        self.spec.validate()?;
        for (i, job) in self.jobs.iter().enumerate() {
            if job.origin.0 >= self.spec.num_edge() {
                return Err(InstanceError::OriginOutOfRange {
                    job: i,
                    origin: job.origin.0,
                });
            }
        }
        Ok(())
    }

    /// Number of jobs (`n`).
    pub fn num_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// The job with the given id.
    pub fn job(&self, id: JobId) -> &Job {
        &self.jobs[id.0]
    }

    /// Iterator over `(JobId, &Job)`.
    pub fn iter_jobs(&self) -> impl Iterator<Item = (JobId, &Job)> {
        self.jobs.iter().enumerate().map(|(i, j)| (JobId(i), j))
    }

    /// Ratio `Δ` between the longest and the shortest job (minimum
    /// dedicated times) — the paper's competitive-ratio parameter.
    pub fn delta(&self) -> f64 {
        let mut lo = f64::INFINITY;
        let mut hi: f64 = 0.0;
        for j in &self.jobs {
            let t = j.min_time(&self.spec);
            lo = lo.min(t);
            hi = hi.max(t);
        }
        if self.jobs.is_empty() {
            1.0
        } else {
            hi / lo
        }
    }

    /// Serializes to the `mmsec-instance` text format: `v1` for flat
    /// platforms (byte-compatible with every archived output), `v2` with
    /// `hop` records and tier-annotated `cloud` records when tiered.
    pub fn to_text(&self) -> String {
        let tiers = self.spec.tier_topology();
        let mut out = String::from(if tiers.is_some() {
            "# mmsec-instance v2\n"
        } else {
            "# mmsec-instance v1\n"
        });
        for j in self.spec.edges() {
            out.push_str(&format!("edge {}\n", fmt_f64(self.spec.edge_speed(j))));
        }
        if let Some(t) = tiers {
            for h in 0..t.depth() {
                let (up, dn) = t.hop(h);
                out.push_str(&format!("hop {} {}\n", fmt_f64(up), fmt_f64(dn)));
            }
        }
        for k in self.spec.clouds() {
            match tiers {
                None => out.push_str(&format!("cloud {}\n", fmt_f64(self.spec.cloud_speed(k)))),
                Some(t) => out.push_str(&format!(
                    "cloud {} {}\n",
                    fmt_f64(self.spec.cloud_speed(k)),
                    t.tier_of(k)
                )),
            }
        }
        for k in self.spec.clouds() {
            for w in self.spec.cloud_unavailability(k).iter() {
                out.push_str(&format!(
                    "window {} {} {}\n",
                    k.0,
                    fmt_f64(w.start().seconds()),
                    fmt_f64(w.end().seconds())
                ));
            }
        }
        for job in &self.jobs {
            out.push_str(&format!(
                "job {} {} {} {} {}\n",
                job.origin.0,
                fmt_f64(job.release.seconds()),
                fmt_f64(job.work),
                fmt_f64(job.up),
                fmt_f64(job.dn)
            ));
        }
        out
    }

    /// Parses the `mmsec-instance` text format, both `v1` (flat) and
    /// `v2` (tiered). A `v2` `cloud` record may omit its tier, which
    /// then defaults to the deepest one.
    pub fn from_text(text: &str) -> Result<Self, InstanceError> {
        let mut edge_speeds = Vec::new();
        let mut cloud_speeds = Vec::new();
        let mut cloud_tiers: Vec<Option<usize>> = Vec::new();
        let mut tiered_cloud_line: Option<usize> = None;
        let mut hops: Vec<(f64, f64)> = Vec::new();
        let mut windows: Vec<(usize, usize, f64, f64)> = Vec::new();
        let mut jobs = Vec::new();

        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut toks = line.split_whitespace();
            let kind = toks.next().expect("nonempty line has a first token");
            let parse = |tok: Option<&str>, what: &str| -> Result<f64, InstanceError> {
                tok.ok_or_else(|| InstanceError::Parse {
                    line: lineno + 1,
                    message: format!("missing {what}"),
                })?
                .parse::<f64>()
                .map_err(|e| InstanceError::Parse {
                    line: lineno + 1,
                    message: format!("bad {what}: {e}"),
                })
            };
            // A number that must also satisfy `ok` (described by `rule`):
            // job and window fields are checked here, so a bad file is a
            // typed parse error rather than a constructor panic.
            let checked = |tok: Option<&str>, what: &str, ok: fn(f64) -> bool, rule: &str| {
                let x = parse(tok, what)?;
                if ok(x) {
                    Ok(x)
                } else {
                    Err(InstanceError::Parse {
                        line: lineno + 1,
                        message: format!("bad {what}: {x} is not {rule}"),
                    })
                }
            };
            let index = |tok: Option<&str>, what: &str| {
                checked(tok, what, |x| x >= 0.0 && x.fract() == 0.0, "an index").map(|x| x as usize)
            };
            let nonneg = |x: f64| x.is_finite() && x >= 0.0;
            match kind {
                "edge" => edge_speeds.push(parse(toks.next(), "edge speed")?),
                "cloud" => {
                    cloud_speeds.push(parse(toks.next(), "cloud speed")?);
                    cloud_tiers.push(match toks.next() {
                        None => None,
                        Some(t) => {
                            tiered_cloud_line.get_or_insert(lineno + 1);
                            Some(t.parse::<usize>().map_err(|e| InstanceError::Parse {
                                line: lineno + 1,
                                message: format!("bad cloud tier: {e}"),
                            })?)
                        }
                    });
                }
                "hop" => {
                    let up = parse(toks.next(), "hop uplink factor")?;
                    let dn = parse(toks.next(), "hop downlink factor")?;
                    hops.push((up, dn));
                }
                "window" => {
                    let k = index(toks.next(), "cloud index")?;
                    let a = checked(toks.next(), "window start", f64::is_finite, "finite")?;
                    let b = checked(toks.next(), "window end", f64::is_finite, "finite")?;
                    if !Time::new(b).approx_ge(Time::new(a)) {
                        return Err(InstanceError::Parse {
                            line: lineno + 1,
                            message: format!("window end {b} precedes its start {a}"),
                        });
                    }
                    windows.push((lineno + 1, k, a, b));
                }
                "job" => {
                    let origin = index(toks.next(), "origin")?;
                    let release = checked(toks.next(), "release", nonneg, "finite and >= 0")?;
                    let work = checked(
                        toks.next(),
                        "work",
                        |x| x.is_finite() && x > 0.0,
                        "finite and > 0",
                    )?;
                    let up = checked(toks.next(), "uplink", nonneg, "finite and >= 0")?;
                    let dn = checked(toks.next(), "downlink", nonneg, "finite and >= 0")?;
                    jobs.push(Job::new(EdgeId(origin), release, work, up, dn));
                }
                other => {
                    return Err(InstanceError::Parse {
                        line: lineno + 1,
                        message: format!("unknown record kind {other:?}"),
                    })
                }
            }
        }

        let tiers = if hops.is_empty() {
            if let Some(line) = tiered_cloud_line {
                return Err(InstanceError::Parse {
                    line,
                    message: "cloud tier given but no hop records".into(),
                });
            }
            None
        } else {
            let depth = hops.len();
            let tier_of: Vec<usize> = cloud_tiers.iter().map(|t| t.unwrap_or(depth)).collect();
            Some(TierTopology::new(&hops, tier_of)?)
        };
        let mut spec = PlatformSpec::try_from_parts(edge_speeds, cloud_speeds, tiers)?;
        for (line, k, a, b) in windows {
            if k >= spec.num_cloud() {
                return Err(InstanceError::Spec(SpecError::WindowOutOfRange {
                    cloud: k,
                }));
            }
            let window = Interval::new(Time::new(a), Time::new(b));
            if let Err(earlier) = spec.add_cloud_unavailability(CloudId(k), window) {
                return Err(InstanceError::Parse {
                    line,
                    message: format!(
                        "window {window:?} on cloud {k} overlaps {earlier:?}, declared earlier"
                    ),
                });
            }
        }
        Instance::new(spec, jobs)
    }
}

/// Typed constructor for [`Instance`]: the platform chain of
/// [`SpecBuilder`] plus job records, finished by
/// [`build`](InstanceBuilder::build) /
/// [`try_build`](InstanceBuilder::try_build). Obtained from
/// [`Instance::builder`].
#[derive(Clone, Debug, Default)]
pub struct InstanceBuilder {
    spec: SpecBuilder,
    jobs: Vec<Job>,
}

impl InstanceBuilder {
    /// Adds one edge unit with the given speed.
    pub fn edge(mut self, speed: f64) -> Self {
        self.spec = self.spec.edge(speed);
        self
    }

    /// Adds one edge unit per speed.
    pub fn edges(mut self, speeds: impl IntoIterator<Item = f64>) -> Self {
        self.spec = self.spec.edges(speeds);
        self
    }

    /// Opens the next tier: clouds added after this call sit one hop
    /// further from the edges, behind a link with the given per-volume
    /// uplink/downlink factors.
    pub fn tier(mut self, up: f64, dn: f64) -> Self {
        self.spec = self.spec.tier(up, dn);
        self
    }

    /// Adds one cloud processor at the current tier.
    pub fn cloud(mut self, speed: f64) -> Self {
        self.spec = self.spec.cloud(speed);
        self
    }

    /// Adds one cloud processor per speed, all at the current tier.
    pub fn clouds(mut self, speeds: impl IntoIterator<Item = f64>) -> Self {
        self.spec = self.spec.clouds(speeds);
        self
    }

    /// Adds `n` unit-speed cloud processors at the current tier.
    pub fn cloud_pool(mut self, n: usize) -> Self {
        self.spec = self.spec.cloud_pool(n);
        self
    }

    /// Declares one unavailability window on the given cloud.
    pub fn unavailability(mut self, cloud: CloudId, window: Interval) -> Self {
        self.spec = self.spec.unavailability(cloud, window);
        self
    }

    /// Adds one job: origin edge index, release date, work, uplink and
    /// downlink times.
    pub fn job(mut self, origin: usize, release: f64, work: f64, up: f64, dn: f64) -> Self {
        self.jobs
            .push(Job::new(EdgeId(origin), release, work, up, dn));
        self
    }

    /// Adds pre-built jobs in order.
    pub fn jobs(mut self, jobs: impl IntoIterator<Item = Job>) -> Self {
        self.jobs.extend(jobs);
        self
    }

    /// Finishes the builder, validating platform and jobs.
    pub fn try_build(self) -> Result<Instance, InstanceError> {
        Instance::new(self.spec.try_build()?, self.jobs)
    }

    /// Finishes the builder; panics on an invalid platform or job set.
    pub fn build(self) -> Instance {
        self.try_build().expect("invalid instance")
    }
}

/// Formats an `f64` with full round-trip precision but without trailing
/// noise for short decimal values.
fn fmt_f64(x: f64) -> String {
    let short = format!("{x}");
    if short.parse::<f64>() == Ok(x) {
        short
    } else {
        format!("{x:.17}")
    }
}

/// The paper's Figure 1 worked example: one edge unit at speed 1/3, one
/// cloud processor, six jobs. Used by examples, tests, and docs.
pub fn figure1_instance() -> Instance {
    let spec = PlatformSpec::builder()
        .edges(vec![1.0 / 3.0])
        .cloud_pool(1)
        .build();
    let jobs = vec![
        Job::new(EdgeId(0), 0.0, 1.0, 5.0, 5.0),       // J1
        Job::new(EdgeId(0), 0.0, 4.0, 2.0, 2.0),       // J2
        Job::new(EdgeId(0), 3.0, 2.0, 1.0, 1.0),       // J3
        Job::new(EdgeId(0), 5.0, 4.0 / 3.0, 5.0, 5.0), // J4
        Job::new(EdgeId(0), 5.0, 2.0, 1.0, 1.0),       // J5
        Job::new(EdgeId(0), 6.0, 1.0 / 3.0, 5.0, 5.0), // J6
    ];
    Instance::new(spec, jobs).expect("figure 1 instance is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_is_valid() {
        let inst = figure1_instance();
        assert_eq!(inst.num_jobs(), 6);
        assert_eq!(inst.spec.num_edge(), 1);
        assert_eq!(inst.spec.num_cloud(), 1);
        // J2 min time is 8 (cloud), J6 min time is 1 (edge).
        assert_eq!(inst.job(JobId(1)).min_time(&inst.spec), 8.0);
        assert_eq!(inst.job(JobId(5)).min_time(&inst.spec), 1.0);
        assert_eq!(inst.delta(), 8.0);
    }

    #[test]
    fn origin_out_of_range_rejected() {
        let spec = PlatformSpec::builder()
            .edges(vec![1.0])
            .cloud_pool(1)
            .build();
        let jobs = vec![Job::new(EdgeId(3), 0.0, 1.0, 0.0, 0.0)];
        assert_eq!(
            Instance::new(spec, jobs),
            Err(InstanceError::OriginOutOfRange { job: 0, origin: 3 })
        );
    }

    #[test]
    fn text_roundtrip() {
        let inst = figure1_instance();
        let text = inst.to_text();
        let back = Instance::from_text(&text).unwrap();
        assert_eq!(inst, back);
    }

    #[test]
    fn text_roundtrip_with_windows() {
        let spec = PlatformSpec::builder()
            .edges(vec![0.5])
            .cloud_pool(2)
            .build()
            .with_cloud_unavailability(
                CloudId(1),
                &[Interval::from_secs(1.0, 2.0), Interval::from_secs(4.0, 6.0)],
            );
        let jobs = vec![Job::new(EdgeId(0), 0.25, 1.5, 0.125, 0.0)];
        let inst = Instance::new(spec, jobs).unwrap();
        let back = Instance::from_text(&inst.to_text()).unwrap();
        assert_eq!(inst, back);
    }

    #[test]
    fn tiered_text_roundtrip() {
        let inst = Instance::builder()
            .edges([0.5, 1.0])
            .tier(1.0, 1.25)
            .clouds([1.0, 2.0])
            .tier(2.5, 3.0)
            .cloud(4.0)
            .unavailability(CloudId(2), Interval::from_secs(1.0, 2.0))
            .job(0, 0.0, 4.0, 2.0, 1.0)
            .job(1, 0.5, 1.0, 0.25, 0.0)
            .build();
        let text = inst.to_text();
        assert!(text.starts_with("# mmsec-instance v2\n"), "{text}");
        assert!(text.contains("hop 1 1.25\n"), "{text}");
        assert!(text.contains("cloud 4 2\n"), "{text}");
        let back = Instance::from_text(&text).unwrap();
        assert_eq!(inst, back);
    }

    #[test]
    fn flat_instances_keep_emitting_v1() {
        let inst = figure1_instance();
        assert!(inst.to_text().starts_with("# mmsec-instance v1\n"));
    }

    #[test]
    fn v2_cloud_tier_defaults_to_deepest() {
        let text = "edge 1\nhop 1 1\nhop 2 2\ncloud 1\ncloud 1 1\njob 0 0 1 0 0\n";
        let inst = Instance::from_text(text).unwrap();
        let t = inst.spec.tier_topology().unwrap();
        assert_eq!(t.tier_of(CloudId(0)), 2);
        assert_eq!(t.tier_of(CloudId(1)), 1);
    }

    #[test]
    fn tier_without_hops_is_rejected() {
        let err = Instance::from_text("edge 1\ncloud 1 1\n").unwrap_err();
        assert!(
            matches!(err, InstanceError::Parse { line: 2, ref message }
                if message.contains("no hop records")),
            "{err}"
        );
    }

    #[test]
    fn builder_validates_like_instance_new() {
        let err = Instance::builder()
            .edge(1.0)
            .cloud(1.0)
            .job(3, 0.0, 1.0, 0.0, 0.0)
            .try_build()
            .unwrap_err();
        assert_eq!(err, InstanceError::OriginOutOfRange { job: 0, origin: 3 });
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = Instance::from_text("edge 1\nbogus 3\n").unwrap_err();
        assert!(matches!(err, InstanceError::Parse { line: 2, .. }));
        let err = Instance::from_text("edge 1\ncloud 1\njob 0 0\n").unwrap_err();
        assert!(matches!(err, InstanceError::Parse { line: 3, .. }));
        let err = Instance::from_text("edge 1\njob 0 0 1 abc 0\n").unwrap_err();
        assert!(matches!(err, InstanceError::Parse { line: 2, .. }));
    }

    #[test]
    fn out_of_range_fields_are_parse_errors() {
        for bad in [
            "job 0 0 -1 0 0",
            "job 0 0 0 0 0",
            "job 0 nan 1 0 0",
            "job 0 -2 1 0 0",
            "job 0 0 inf 0 0",
            "job 0 0 1 -1 0",
            "job 0 0 1 0 nan",
            "job -1 0 1 0 0",
            "job 0.7 0 1 0 0",
            "window 0 inf 5",
            "window 0 7 5",
            "window 0 0 nan",
            "window -1 0 5",
        ] {
            let err = Instance::from_text(&format!("edge 1\ncloud 1\n{bad}\n")).unwrap_err();
            assert!(
                matches!(err, InstanceError::Parse { line: 3, .. }),
                "{bad}: {err}"
            );
        }
    }

    #[test]
    fn overlapping_windows_are_parse_errors_at_the_later_line() {
        for later in [
            "window 0 3 8",
            "window 0 2 3",
            "window 0 1 5",
            "window 0 0 9",
        ] {
            let text = format!("edge 1\ncloud 1\ncloud 1\nwindow 0 1 5\n{later}\njob 0 0 1 0 0\n");
            let err = Instance::from_text(&text).unwrap_err();
            assert!(
                matches!(err, InstanceError::Parse { line: 5, ref message }
                    if message.contains("overlaps")),
                "{later}: {err}"
            );
        }
        // Touching windows, and windows on different clouds, are fine.
        let text = "edge 1\ncloud 1\ncloud 1\nwindow 0 1 5\nwindow 0 5 8\nwindow 1 3 8\n";
        let inst = Instance::from_text(text).unwrap();
        assert_eq!(inst.spec.cloud_unavailability(CloudId(0)).len(), 1);
        assert_eq!(inst.spec.cloud_unavailability(CloudId(1)).len(), 1);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# header\n\nedge 1 # the only edge\ncloud 1\n  \njob 0 0 1 0 0\n";
        let inst = Instance::from_text(text).unwrap();
        assert_eq!(inst.num_jobs(), 1);
    }

    #[test]
    fn delta_on_irregular_jobs() {
        let spec = PlatformSpec::builder()
            .edges(vec![1.0])
            .cloud_pool(0)
            .build();
        let jobs = vec![
            Job::new(EdgeId(0), 0.0, 1.0, 0.0, 0.0),
            Job::new(EdgeId(0), 0.0, 10.0, 0.0, 0.0),
        ];
        let inst = Instance::new(spec, jobs).unwrap();
        assert_eq!(inst.delta(), 10.0);
    }

    #[test]
    fn fmt_f64_roundtrips_oddballs() {
        for x in [1.0 / 3.0, 6.0 / 37.0, 0.1, 95.0, 1e-9] {
            assert_eq!(fmt_f64(x).parse::<f64>().unwrap(), x);
        }
    }
}
