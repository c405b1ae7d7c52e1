//! `mmsec serve` — drive a [`Session`] from a newline-delimited JSON job
//! stream (see `docs/serving.md` for the protocol).
//!
//! Input: one JSON object per line — a job submission, or (with
//! `"type": "platform"`) a platform mutation applied at the current
//! virtual time:
//!
//! ```text
//! {"origin": 0, "release": 1.5, "work": 2.0, "up": 0.5, "dn": 0.25}
//! {"type": "platform", "op": "add-cloud", "speed": 2.0}
//! {"type": "platform", "op": "set-link", "unit": 0, "factor": 0.5}
//! ```
//!
//! `release` is optional (defaults to the current virtual time); `up` and
//! `dn` default to 0. On continuum platforms, `set-hop` retunes a tier
//! hop's `(up, dn)` link-time factors:
//!
//! ```text
//! {"type": "platform", "op": "set-hop", "hop": 0, "up": 2.0, "dn": 1.5}
//! ```
//!
//! Output: one JSON record per line — `admit` / `shed`
//! / `reject` for each input line (`platform-ok` for an applied
//! mutation), `completion` per finished job with its stretch, periodic
//! `heartbeat` snapshots (schema v4: queue depths, decide counters,
//! per-interval deltas, platform version, live unit counts, and
//! tier-graph shape) at a fixed virtual-time
//! cadence, optional `stats` records every `--stats-every N` input
//! lines, and one final `summary`. Heartbeat timestamps are strictly
//! monotone, and their payload always reflects the state *after* the
//! boundary advance — when the session's next event lies beyond several
//! boundaries at once, one heartbeat covers the crossing instead of a
//! stale payload repeating per boundary. Heartbeats only start once the
//! session's virtual clock has (the first release fires): an idle stream
//! whose first job lies far in the future emits no pre-start beats, so no
//! `stats` record can ever carry a timestamp earlier than the last
//! heartbeat.
//!
//! Every `reject` record carries a human-readable `error`, a stable
//! kebab-case `code` (`parse-error`, `bad-type`, `bad-value`,
//! `unknown-field`, `missing-field`, `unknown-op`, or a platform/engine
//! error class such as `unknown-edge` or `origin-out-of-range`), and —
//! when the violation is tied to one — the offending `field`.
//!
//! Every session also feeds an internal [`FlightRecorder`]: if the engine
//! errors or the backlog drain stalls, the last engine events are dumped
//! as a JSON artifact (see [`mmsec_platform::obs::failure_dir`]) and the
//! failure message names the file.
//!
//! The core ([`serve`]) is generic over reader/writer so tests can run it
//! in memory; the binary hands it stdin/stdout (or `--input FILE`).
//!
//! # Lanes
//!
//! Internally the loop is factored as a `Lane`: one session plus its
//! heartbeat cadence, admission counters, and reused buffers, fed one
//! input line at a time. [`serve`] drives a single untagged lane; the
//! sharded server (`crate::server`) keeps one *tagged* lane per tenant —
//! a tagged lane injects a `"tenant"` field right after `"type"` in every
//! record and is otherwise byte-identical to a single-session run.
//!
//! A lane holds only the jobs admitted since it was last idle: before
//! each submission it calls [`Session::retire_finished`], which drops
//! the finished jobs once none is left unfinished. Job ids in `admit`
//! and `completion` records keep counting across those points.

use crate::cli::CliError;
use crate::ndjson::{parse_object_into, ObjBuf, ObjWriter, Value};
use mmsec_core::PolicyKind;
use mmsec_platform::obs::{Event as ObsEvent, FlightRecorder, ObserverHandle, Shared};
use mmsec_platform::{
    CloudId, EdgeId, Instance, Job, JobId, Observer, PlatformMutation, Session, SessionStatus,
    Simulation, Target,
};
use mmsec_sim::Time;
use std::io::{BufRead, Write};

/// Heartbeat/stats payload schema version (the `"v"` field). v3 added
/// `platform_version` and live `edges`/`clouds` counts; v4 added the
/// tier-graph fields (`tiers`, and `clouds_by_tier` on tiered
/// platforms).
pub const STATS_SCHEMA_VERSION: u32 = 4;

/// Ring capacity of the serve loop's internal flight recorder.
const FLIGHT_CAPACITY: usize = 512;

/// Serving-loop knobs (the binary fills these from flags). Lanes run the
/// engine's default options: the paper's model.
#[derive(Clone, Copy)]
pub struct ServeConfig {
    /// Scheduling policy.
    pub policy: PolicyKind,
    /// Seed for seeded policies.
    pub seed: u64,
    /// Emit a `heartbeat` record every this many virtual seconds.
    pub heartbeat: f64,
    /// Bounded admission: shed submissions that would push the number of
    /// unfinished jobs beyond this. `None` = unbounded.
    pub max_pending: Option<usize>,
    /// Emit a `stats` record every this many input lines (`None` = no
    /// dedicated stats stream; heartbeats still carry the full payload).
    pub stats_every: Option<usize>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            policy: PolicyKind::SsfEdf,
            seed: 0,
            heartbeat: 10.0,
            max_pending: None,
            stats_every: None,
        }
    }
}

/// Validates the cadence knobs shared by [`serve`] and the sharded
/// server (which applies them per lane).
pub(crate) fn validate_config(cfg: &ServeConfig) -> Result<(), CliError> {
    if !(cfg.heartbeat > 0.0 && cfg.heartbeat.is_finite()) {
        return Err(CliError::Usage(
            "--heartbeat must be positive seconds".into(),
        ));
    }
    if cfg.stats_every == Some(0) {
        return Err(CliError::Usage(
            "--stats-every must be a positive line count".into(),
        ));
    }
    Ok(())
}

/// Totals returned by [`serve`] (also emitted as the final `summary`
/// record).
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeSummary {
    /// Lines read from the input stream.
    pub lines: usize,
    /// Jobs admitted into the session.
    pub admitted: usize,
    /// Submissions dropped by bounded admission.
    pub shed: usize,
    /// Lines rejected as malformed or invalid.
    pub rejected: usize,
    /// Jobs that completed.
    pub completed: usize,
    /// Maximum stretch over completed jobs.
    pub max_stretch: f64,
}

/// A protocol violation: what went wrong (`code`, a stable kebab-case
/// identifier scripts can switch on), where (`field`, the offending input
/// field — empty when the violation is not tied to one), and a
/// human-readable message. Every `reject` record carries all three.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Reject {
    pub code: &'static str,
    pub field: String,
    pub message: String,
}

impl Reject {
    pub(crate) fn new(code: &'static str, field: &str, message: impl Into<String>) -> Reject {
        Reject {
            code,
            field: field.to_string(),
            message: message.into(),
        }
    }

    /// A violation not attributable to a single input field (e.g. a line
    /// that failed to parse at all).
    pub(crate) fn bare(code: &'static str, message: impl Into<String>) -> Reject {
        Reject::new(code, "", message)
    }

    /// Writes the reject payload fields (everything but `type`/routing
    /// fields) into an open record.
    pub(crate) fn write_into(&self, w: &mut ObjWriter) {
        w.str_field("error", &self.message)
            .str_field("code", self.code);
        if !self.field.is_empty() {
            w.str_field("field", &self.field);
        }
    }
}

/// One parsed submission line.
pub(crate) struct SubmitRequest {
    pub(crate) origin: usize,
    pub(crate) release: Option<f64>,
    pub(crate) work: f64,
    pub(crate) up: f64,
    pub(crate) dn: f64,
}

/// Parses a submission line's fields, reporting protocol violations as
/// typed [`Reject`]s (the loop turns them into `reject` records, not
/// fatal errors). Shared with the trace importer ([`crate::trace`]).
pub(crate) fn parse_submit(fields: &[(String, Value)]) -> Result<SubmitRequest, Reject> {
    let mut req = SubmitRequest {
        origin: 0,
        release: None,
        work: f64::NAN,
        up: 0.0,
        dn: 0.0,
    };
    let mut saw_origin = false;
    for (key, value) in fields {
        let num = |v: &Value| {
            v.as_num().ok_or_else(|| {
                Reject::new("bad-type", key, format!("field {key:?} must be a number"))
            })
        };
        match key.as_str() {
            "origin" => {
                let x = num(value)?;
                if x < 0.0 || x.fract() != 0.0 {
                    return Err(Reject::new(
                        "bad-value",
                        key,
                        format!("origin must be a non-negative integer, got {x}"),
                    ));
                }
                req.origin = x as usize;
                saw_origin = true;
            }
            "release" => req.release = Some(num(value)?),
            "work" => req.work = num(value)?,
            "up" => req.up = num(value)?,
            "dn" => req.dn = num(value)?,
            // Tolerated so producers can tag lines for their own use;
            // `tenant` is the sharded server's routing key and is
            // meaningless (but harmless) on a single session.
            "type" | "id" | "tag" | "tenant" => {}
            other => {
                return Err(Reject::new(
                    "unknown-field",
                    other,
                    format!("unknown field {other:?}"),
                ))
            }
        }
    }
    if !saw_origin {
        return Err(Reject::new(
            "missing-field",
            "origin",
            "missing field \"origin\"",
        ));
    }
    if !(req.work > 0.0 && req.work.is_finite()) {
        return Err(Reject::new(
            "bad-value",
            "work",
            "field \"work\" must be a positive number",
        ));
    }
    if req.up < 0.0 || req.dn < 0.0 {
        let field = if req.up < 0.0 { "up" } else { "dn" };
        return Err(Reject::new(
            "bad-value",
            field,
            "fields \"up\"/\"dn\" must be ≥ 0",
        ));
    }
    if req.release.is_some_and(|r| r < 0.0) {
        return Err(Reject::new(
            "bad-value",
            "release",
            "field \"release\" must be ≥ 0",
        ));
    }
    Ok(req)
}

/// True when the line is a `{"type": "platform", ...}` mutation record
/// rather than a job submission.
fn is_platform_record(fields: &[(String, Value)]) -> bool {
    fields
        .iter()
        .any(|(k, v)| k == "type" && v.as_str() == Some("platform"))
}

/// Parses a platform mutation record, reporting protocol violations as
/// typed [`Reject`]s (`reject` records, never fatal). Speeds and factors
/// are *not* range-checked here — the platform runtime owns those rules
/// and reports them as typed errors ([`mmsec_platform::PlatformError`]).
fn parse_platform(fields: &[(String, Value)]) -> Result<PlatformMutation, Reject> {
    let mut op: Option<String> = None;
    let mut unit: Option<usize> = None;
    let mut hop: Option<usize> = None;
    let mut speed: Option<f64> = None;
    let mut factor: Option<f64> = None;
    let mut up: Option<f64> = None;
    let mut dn: Option<f64> = None;
    for (key, value) in fields {
        let num = |v: &Value| {
            v.as_num().ok_or_else(|| {
                Reject::new("bad-type", key, format!("field {key:?} must be a number"))
            })
        };
        let index = |v: &Value| {
            let x = num(v)?;
            if x < 0.0 || x.fract() != 0.0 {
                return Err(Reject::new(
                    "bad-value",
                    key,
                    format!("{key} must be a non-negative integer, got {x}"),
                ));
            }
            Ok(x as usize)
        };
        match key.as_str() {
            "op" => match value.as_str() {
                // Producers may use `_` or `-` interchangeably.
                Some(s) => op = Some(s.replace('_', "-")),
                None => {
                    return Err(Reject::new(
                        "bad-type",
                        "op",
                        "field \"op\" must be a string",
                    ))
                }
            },
            "unit" => unit = Some(index(value)?),
            "hop" => hop = Some(index(value)?),
            "speed" => speed = Some(num(value)?),
            "factor" => factor = Some(num(value)?),
            "up" => up = Some(num(value)?),
            "dn" => dn = Some(num(value)?),
            "type" | "id" | "tag" | "tenant" => {}
            other => {
                return Err(Reject::new(
                    "unknown-field",
                    other,
                    format!("unknown field {other:?}"),
                ))
            }
        }
    }
    let op = op.ok_or_else(|| Reject::new("missing-field", "op", "missing field \"op\""))?;
    let need = |opt: Option<f64>, field: &'static str, what: &str| {
        opt.ok_or_else(|| {
            Reject::new(
                "missing-field",
                field,
                format!("op {what:?} needs a {field:?} field"),
            )
        })
    };
    let unit = |what: &str| {
        unit.ok_or_else(|| {
            Reject::new(
                "missing-field",
                "unit",
                format!("op {what:?} needs a \"unit\" field"),
            )
        })
    };
    let speed = |what: &str| need(speed, "speed", what);
    let factor = |what: &str| need(factor, "factor", what);
    Ok(match op.as_str() {
        "add-edge" => PlatformMutation::AddEdge { speed: speed(&op)? },
        "remove-edge" => PlatformMutation::RemoveEdge {
            edge: EdgeId(unit(&op)?),
        },
        "add-cloud" => PlatformMutation::AddCloud { speed: speed(&op)? },
        "remove-cloud" => PlatformMutation::RemoveCloud {
            cloud: CloudId(unit(&op)?),
        },
        "set-link" => PlatformMutation::SetLink {
            edge: EdgeId(unit(&op)?),
            factor: factor(&op)?,
        },
        "set-edge-speed" => PlatformMutation::SetEdgeSpeed {
            edge: EdgeId(unit(&op)?),
            speed: speed(&op)?,
        },
        "set-cloud-speed" => PlatformMutation::SetCloudSpeed {
            cloud: CloudId(unit(&op)?),
            speed: speed(&op)?,
        },
        "set-hop" => PlatformMutation::SetHop {
            hop: hop.ok_or_else(|| {
                Reject::new(
                    "missing-field",
                    "hop",
                    format!("op {op:?} needs a \"hop\" field"),
                )
            })?,
            up: need(up, "up", &op)?,
            dn: need(dn, "dn", &op)?,
        },
        other => {
            return Err(Reject::new(
                "unknown-op",
                "op",
                format!(
                    "unknown op {other:?} (expected add-edge, remove-edge, add-cloud, \
                     remove-cloud, set-link, set-edge-speed, set-cloud-speed, or set-hop)"
                ),
            ))
        }
    })
}

/// One parsed input line.
enum Request {
    Platform(PlatformMutation),
    Submit(SubmitRequest),
}

/// Parses one input line into the request it carries, or the typed
/// [`Reject`] for its protocol violation. Both record kinds read the same
/// field buffer.
fn parse_line(line: &str, fields: &mut ObjBuf) -> Result<Request, Reject> {
    parse_object_into(line, fields).map_err(|why| Reject::bare("parse-error", why.0))?;
    if is_platform_record(fields.fields()) {
        parse_platform(fields.fields()).map(Request::Platform)
    } else {
        parse_submit(fields.fields()).map(Request::Submit)
    }
}

/// The one acknowledgement each non-blank input line gets.
enum Ack {
    Admit { job: JobId, release: f64 },
    Shed { unfinished: usize },
    PlatformOk { op: &'static str, version: u64 },
    Reject(Reject),
}

fn write_line(out: &mut impl Write, line: &str) -> Result<(), CliError> {
    writeln!(out, "{line}").map_err(|e| CliError::Io(format!("output stream: {e}")))
}

/// Starts a record of `kind`, injecting the lane's tenant tag (when set)
/// as the field right after `"type"` — so a tagged record minus its
/// tenant field is byte-identical to the untagged one.
fn reset_rec<'w>(w: &'w mut ObjWriter, kind: &str, tenant: Option<&str>) -> &'w mut ObjWriter {
    w.reset(kind);
    if let Some(t) = tenant {
        w.str_field("tenant", t);
    }
    w
}

/// Forwards every engine event to the serve loop's flight recorder and,
/// when the caller supplied one, to their observer too. Keeps each
/// `Completed` event in `completed` for the lane to write.
struct Tandem<'a> {
    flight: ObserverHandle,
    completed: Shared<Vec<ObsEvent>>,
    other: Option<&'a mut dyn Observer>,
}

impl Observer for Tandem<'_> {
    fn on_event(&mut self, event: &ObsEvent) {
        self.flight.on_event(event);
        if let ObsEvent::Completed { .. } = event {
            self.completed.with(|c| c.push(event.clone()));
        }
        if let Some(obs) = self.other.as_deref_mut() {
            obs.on_event(event);
        }
    }
}

/// Totals as of the previous record of a stream, for per-interval deltas.
/// Heartbeats and `stats` records each keep their own tracker so that the
/// deltas within either stream always sum to the totals, regardless of
/// how the two cadences interleave.
#[derive(Clone, Copy, Default)]
struct Deltas {
    admitted: usize,
    shed: usize,
    completed: usize,
}

/// Shared cadence/telemetry state of one serving loop.
struct Pulse {
    beat: f64,
    next_beat: f64,
    stats_every: Option<usize>,
    last_beat: Deltas,
    last_stats: Deltas,
    flight: Shared<FlightRecorder>,
    /// Tenant tag injected into every record of this lane (see
    /// [`reset_rec`]); `None` for a plain single-session serve.
    tenant: Option<String>,
}

impl Pulse {
    /// Wraps an engine failure, dumping the flight ring alongside it.
    fn engine_failure(&self, msg: String) -> CliError {
        match self.flight.with(|f| f.dump("serve")) {
            Some(path) => {
                CliError::Failure(format!("{msg} (flight recording: {})", path.display()))
            }
            None => CliError::Failure(msg),
        }
    }
}

/// Writes the shared stats payload (schema v4) into `w`: queue depths,
/// decide counters, admission totals, per-interval deltas, and platform
/// shape (including tier-graph fields). Updates `last` to the current
/// totals. `by_tier` and `list` are the lane's reused scratch for the
/// tier-graph fields.
fn stats_payload(
    w: &mut ObjWriter,
    session: &Session<'_>,
    summary: &ServeSummary,
    last: &mut Deltas,
    by_tier: &mut Vec<usize>,
    list: &mut String,
) {
    use std::fmt::Write as _;
    let s = session.snapshot();
    w.num_field("now", s.now.seconds())
        .num_field("submitted", s.submitted as f64)
        .num_field("completed", s.completed as f64)
        .num_field("unfinished", s.unfinished as f64)
        .num_field("pending", s.pending as f64)
        .num_field("running", s.running as f64)
        .num_field("platform_version", session.platform().version() as f64)
        .num_field("edges", session.platform().num_edges_live() as f64)
        .num_field("clouds", session.platform().num_clouds_live() as f64);
    // v4: tier-graph shape — the hop count, and (tiered only) the live
    // cloud count at each tier as a comma-joined list (`"2,1"` = two live
    // clouds at tier 1, one at tier 2). The protocol's records are flat,
    // so the list is a string, not an array.
    let platform = session.platform();
    let depth = platform.spec().tier_depth();
    w.num_field("tiers", depth as f64);
    if let Some(topo) = platform.spec().tier_topology() {
        by_tier.clear();
        by_tier.resize(depth, 0);
        for k in platform.spec().clouds() {
            if platform.cloud_live(k) {
                by_tier[topo.tier_of(k) - 1] += 1;
            }
        }
        list.clear();
        for (t, n) in by_tier.iter().enumerate() {
            let sep = if t == 0 { "" } else { "," };
            let _ = write!(list, "{sep}{n}");
        }
        w.str_field("clouds_by_tier", list);
    }
    w.num_field("max_stretch", s.max_stretch)
        .num_field("mean_stretch", s.mean_stretch)
        .num_field("events", s.run.events as f64)
        .num_field("decides", s.run.decides as f64)
        .num_field("decide_skips", s.run.decide_skips as f64)
        .num_field("admitted", summary.admitted as f64)
        .num_field("shed", summary.shed as f64)
        .num_field("rejected", summary.rejected as f64)
        .num_field("admitted_delta", (summary.admitted - last.admitted) as f64)
        .num_field("shed_delta", (summary.shed - last.shed) as f64)
        .num_field(
            "completed_delta",
            s.completed.saturating_sub(last.completed) as f64,
        );
    *last = Deltas {
        admitted: summary.admitted,
        shed: summary.shed,
        completed: s.completed,
    };
}

/// One serving loop: a session plus its cadence state, admission
/// counters, and reused line/record buffers, fed one input line at a
/// time. [`serve`] drives exactly one untagged lane; the sharded server
/// keeps a map of tagged lanes (one per tenant) and feeds each the lines
/// routed to it. A tagged lane's output is byte-identical to the same
/// traffic on a single-session serve, modulo the injected `"tenant"`
/// field (see [`reset_rec`]).
pub(crate) struct Lane<'a> {
    session: Session<'a>,
    /// The session's `Completed` events since the last `completion`
    /// records; drained with its capacity kept.
    completed: Shared<Vec<ObsEvent>>,
    pulse: Pulse,
    summary: ServeSummary,
    max_pending: Option<usize>,
    policy_name: &'static str,
    // Reused per-line storage: the parsed fields, the output record, a
    // small formatting scratch, and the per-tier cloud counts of stats
    // records. A steady stream of well-formed submissions allocates
    // nothing per line in this layer.
    fields: ObjBuf,
    w: ObjWriter,
    scratch: String,
    by_tier: Vec<usize>,
}

impl<'a> Lane<'a> {
    /// Builds a lane over a fresh session of `sim`
    /// ([`Simulation::owning`] gives a lane that borrows nothing, as a
    /// shard worker's lane map needs): the configured policy, the lane's
    /// flight recorder and, when given, `observer` watch every engine
    /// event. `tenant` tags every record when set. The caller is
    /// responsible for having validated `cfg` (see [`validate_config`]).
    pub(crate) fn new<'o: 'a>(
        sim: Simulation<'a>,
        cfg: &ServeConfig,
        tenant: Option<String>,
        observer: Option<&'o mut dyn Observer>,
    ) -> Self {
        let flight = Shared::new(FlightRecorder::with_capacity(FLIGHT_CAPACITY));
        let completed = Shared::new(Vec::new());
        let tandem = Tandem {
            flight: flight.handle(),
            completed: completed.clone(),
            other: observer,
        };
        let session = sim
            .policy_boxed(cfg.policy.build(cfg.seed))
            .observer_boxed(Box::new(tandem))
            .session();
        let summary = ServeSummary {
            admitted: session.instance().num_jobs(),
            ..ServeSummary::default()
        };
        Lane {
            session,
            completed,
            pulse: Pulse {
                beat: cfg.heartbeat,
                next_beat: cfg.heartbeat,
                stats_every: cfg.stats_every,
                last_beat: Deltas::default(),
                last_stats: Deltas::default(),
                flight,
                tenant,
            },
            summary,
            max_pending: cfg.max_pending,
            policy_name: cfg.policy.name(),
            fields: ObjBuf::new(),
            w: ObjWriter::typed("hello"),
            scratch: String::new(),
            by_tier: Vec::new(),
        }
    }

    /// Emits the `hello` record (the first line of the lane's stream).
    pub(crate) fn hello(&mut self, out: &mut impl Write) -> Result<(), CliError> {
        let spec = &self.session.instance().spec;
        let (edges, clouds) = (spec.num_edge(), spec.num_cloud());
        let preloaded = self.session.instance().num_jobs();
        let w = reset_rec(&mut self.w, "hello", self.pulse.tenant.as_deref());
        w.str_field("policy", self.policy_name)
            .num_field("edges", edges as f64)
            .num_field("clouds", clouds as f64)
            .num_field("preloaded", preloaded as f64)
            .num_field("heartbeat", self.pulse.beat);
        if let Some(n) = self.pulse.stats_every {
            w.num_field("stats_every", n as f64);
        }
        write_line(out, self.w.close())
    }

    /// The lane's admission totals so far (summary-record fields are only
    /// final after [`Lane::finish`]).
    pub(crate) fn summary(&self) -> &ServeSummary {
        &self.summary
    }

    /// Unfinished jobs currently in the lane's session.
    pub(crate) fn unfinished(&self) -> usize {
        self.session.snapshot().unfinished
    }

    /// Feeds one input line: parses it, advances the session to the
    /// arrival, applies admission control, writes the line's one ack
    /// (`admit`, `shed`, `platform-ok` or `reject`), then a `stats` record
    /// when the line falls on the `--stats-every` cadence. Protocol
    /// violations and refused mutations or submissions become `reject`
    /// records; only engine failures and output I/O errors are fatal.
    pub(crate) fn handle_line(&mut self, line: &str, out: &mut impl Write) -> Result<(), CliError> {
        if line.trim().is_empty() {
            return Ok(());
        }
        self.summary.lines += 1;
        let seq = self.summary.lines;
        let ack = match parse_line(line.trim_end(), &mut self.fields) {
            // A mutation the runtime refused (unknown unit, removed twice,
            // bad speed, last edge): the offending field is the op itself;
            // the code is the runtime's stable error class.
            Ok(Request::Platform(m)) => match self.session.apply_platform(m) {
                Ok(version) => Ack::PlatformOk {
                    op: m.op(),
                    version,
                },
                Err(e) => Ack::Reject(Reject::new(e.code(), "op", e.to_string())),
            },
            Ok(Request::Submit(req)) => self.submit(req, out)?,
            Err(why) => Ack::Reject(why),
        };

        let tenant = self.pulse.tenant.as_deref();
        let w = &mut self.w;
        match ack {
            Ack::Admit { job, release } => {
                self.summary.admitted += 1;
                reset_rec(w, "admit", tenant)
                    .num_field("line", seq as f64)
                    .num_field("job", job.0 as f64)
                    .num_field("release", release);
            }
            Ack::Shed { unfinished } => {
                self.summary.shed += 1;
                reset_rec(w, "shed", tenant)
                    .num_field("line", seq as f64)
                    .str_field("reason", "max-pending")
                    .num_field("unfinished", unfinished as f64);
            }
            Ack::PlatformOk { op, version } => {
                let p = self.session.platform();
                reset_rec(w, "platform-ok", tenant)
                    .num_field("line", seq as f64)
                    .str_field("op", op)
                    .num_field("version", version as f64)
                    .num_field("edges", p.num_edges_live() as f64)
                    .num_field("clouds", p.num_clouds_live() as f64);
            }
            Ack::Reject(why) => {
                self.summary.rejected += 1;
                why.write_into(reset_rec(w, "reject", tenant).num_field("line", seq as f64));
            }
        }
        write_line(out, self.w.close())?;
        if self.pulse.stats_every.is_some_and(|n| seq % n == 0) {
            self.write_stats(Some(seq), out)?;
        }
        Ok(())
    }

    /// Brings virtual time up to a submission's release (file replay of a
    /// historical trace), beating on the way, then admits it — or sheds
    /// it at `--max-pending` rather than queueing without limit.
    fn submit(&mut self, req: SubmitRequest, out: &mut impl Write) -> Result<Ack, CliError> {
        if let Some(release) = req.release {
            if Time::new(release) > self.session.now() {
                self.advance(Some(Time::new(release)), out)?;
            }
        }
        let unfinished = self.session.snapshot().unfinished;
        if self.max_pending.is_some_and(|cap| unfinished >= cap) {
            return Ok(Ack::Shed { unfinished });
        }
        let release = req.release.unwrap_or_else(|| self.session.now().seconds());
        let job = Job::new(
            EdgeId(req.origin),
            release.max(0.0),
            req.work,
            req.up,
            req.dn,
        );
        // An idle lane forgets the jobs it finished (their completions
        // are already written), so its memory follows its busy period.
        self.session.retire_finished();
        Ok(match self.session.submit(job) {
            Ok(job) => Ack::Admit { job, release },
            // Refused (unknown or removed origin): the field is the origin.
            Err(e) => Ack::Reject(Reject::new(e.code(), "origin", e.to_string())),
        })
    }

    /// Advances the session toward `until` (`None`: until it runs out of
    /// work), writing completions as they happen and a heartbeat at every
    /// heartbeat boundary crossed. Returns the last step's status:
    /// `Reached` once `until` is reached, else `Done` or `Blocked` (only a
    /// later submission can unblock the session).
    ///
    /// Heartbeat timestamps stay strictly monotone, and each payload
    /// reflects the state *after* its boundary advance: a session whose
    /// next event lies beyond several boundaries pauses past them all at
    /// once, and one beat covers the crossing (repeating it per boundary
    /// would duplicate timestamps and re-report state from before the
    /// advance).
    ///
    /// An *unstarted* session (no release has fired yet — possible when
    /// every job so far was admitted for a future release) has no clock,
    /// so it may not beat, and pausing it at a boundary before its first
    /// event is a no-op that would loop forever. Its first stop is
    /// therefore pushed out to its first queued event, or to `until` if
    /// that comes first; then nothing can happen yet.
    fn advance(
        &mut self,
        until: Option<Time>,
        out: &mut impl Write,
    ) -> Result<SessionStatus, CliError> {
        loop {
            let mut stop = match until {
                Some(t) if self.pulse.next_beat >= t.seconds() => t,
                _ => Time::new(self.pulse.next_beat),
            };
            if !self.session.started() {
                if let Some(t0) = self.session.next_event_time() {
                    if t0 > stop {
                        stop = until.map_or(t0, |t| t0.min(t));
                    }
                }
            }
            let status = self
                .session
                .run_until(stop)
                .map_err(|e| self.pulse.engine_failure(format!("engine: {e}")))?;
            self.emit_completions(out)?;
            // Done or Blocked: an idle session needs no beats. Still
            // unstarted: its first event lies beyond `until`, so no
            // boundary was crossed.
            if matches!(status, SessionStatus::Blocked | SessionStatus::Done)
                || !self.session.started()
            {
                return Ok(status);
            }
            if self.pulse.next_beat <= self.session.now().seconds() {
                self.write_stats(None, out)?;
                self.pulse.next_beat += self.pulse.beat;
                while self.pulse.next_beat <= self.session.now().seconds() {
                    self.pulse.next_beat += self.pulse.beat;
                }
            }
            if until.is_some_and(|t| self.session.now() >= t) {
                return Ok(status);
            }
        }
    }

    /// Writes the session's `Completed` events as `completion` records.
    /// The event list and the writer are reused, so the steady-state emit
    /// path allocates nothing; the per-record `target` string goes
    /// through the reused scratch buffer for the same reason.
    fn emit_completions(&mut self, out: &mut impl Write) -> Result<(), CliError> {
        use std::fmt::Write as _;
        self.completed.with(|completed| {
            for event in completed.drain(..) {
                let ObsEvent::Completed {
                    t,
                    job,
                    release,
                    cloud,
                    response,
                    stretch,
                } = event
                else {
                    continue;
                };
                self.summary.completed += 1;
                self.summary.max_stretch = self.summary.max_stretch.max(stretch);
                let target = cloud.map_or(Target::Edge, |k| Target::Cloud(CloudId(k)));
                self.scratch.clear();
                let _ = write!(self.scratch, "{target}");
                reset_rec(&mut self.w, "completion", self.pulse.tenant.as_deref())
                    .num_field("job", job as f64)
                    .str_field("target", &self.scratch)
                    .num_field("release", release.seconds())
                    .num_field("completion", t.seconds())
                    .num_field("response", response)
                    .num_field("stretch", stretch);
                write_line(out, self.w.close())?;
            }
            Ok(())
        })
    }

    /// Writes a `heartbeat` (`line: None`) or the `stats` record of input
    /// line `line`: the shared payload, with deltas against that stream's
    /// own previous record.
    fn write_stats(&mut self, line: Option<usize>, out: &mut impl Write) -> Result<(), CliError> {
        let (kind, last) = match line {
            None => ("heartbeat", &mut self.pulse.last_beat),
            Some(_) => ("stats", &mut self.pulse.last_stats),
        };
        let w = reset_rec(&mut self.w, kind, self.pulse.tenant.as_deref());
        w.num_field("v", STATS_SCHEMA_VERSION as f64);
        if let Some(n) = line {
            w.num_field("line", n as f64);
        }
        stats_payload(
            w,
            &self.session,
            &self.summary,
            last,
            &mut self.by_tier,
            &mut self.scratch,
        );
        write_line(out, self.w.close())
    }

    /// Input exhausted: runs the backlog dry (still beating
    /// periodically), then emits the final `summary` record and returns
    /// the totals.
    pub(crate) fn finish(&mut self, out: &mut impl Write) -> Result<ServeSummary, CliError> {
        if self.advance(None, out)? == SessionStatus::Blocked {
            return Err(self.pulse.engine_failure(format!(
                "stalled at t={} with {} unfinished job(s): the policy \
                 granted no activity and no event is queued",
                self.session.now(),
                self.session.snapshot().unfinished
            )));
        }
        let snap = self.session.snapshot();
        self.summary.max_stretch = self.summary.max_stretch.max(snap.max_stretch);
        reset_rec(&mut self.w, "summary", self.pulse.tenant.as_deref())
            .num_field("now", snap.now.seconds())
            .num_field("lines", self.summary.lines as f64)
            .num_field("admitted", self.summary.admitted as f64)
            .num_field("shed", self.summary.shed as f64)
            .num_field("rejected", self.summary.rejected as f64)
            .num_field("completed", snap.completed as f64)
            .num_field("max_stretch", snap.max_stretch)
            .num_field("mean_stretch", snap.mean_stretch)
            .num_field("events", snap.run.events as f64);
        write_line(out, self.w.close())?;
        self.summary.completed = snap.completed;
        Ok(self.summary)
    }
}

/// Runs the serving loop: reads NDJSON submissions from `input`, steps a
/// [`Session`] between arrivals, and writes NDJSON records to `out`.
///
/// `inst` provides the platform (its jobs, if any, are pre-submitted as a
/// warm batch). Per-event observability flows through `observer` exactly
/// as in a batch run.
pub fn serve(
    inst: &Instance,
    cfg: &ServeConfig,
    mut input: impl BufRead,
    mut out: impl Write,
    observer: Option<&mut dyn Observer>,
) -> Result<ServeSummary, CliError> {
    validate_config(cfg)?;
    let mut lane = Lane::new(Simulation::of(inst), cfg, None, observer);
    lane.hello(&mut out)?;
    let mut line = String::new();
    loop {
        line.clear();
        let n = input
            .read_line(&mut line)
            .map_err(|e| CliError::Io(format!("input stream: {e}")))?;
        if n == 0 {
            break;
        }
        lane.handle_line(&line, &mut out)?;
    }
    lane.finish(&mut out)
}
