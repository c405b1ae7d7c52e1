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
//! per-interval deltas, platform version, live unit counts, tier-graph
//! shape, and — under `--speedup` — the wall-vs-virtual lag) at a fixed
//! virtual-time
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
//! in memory; the binary hands it stdin/stdout (or `--input FILE`,
//! replayed in wall time with `--speedup`).
//!
//! # Lanes
//!
//! Internally the loop is factored as a `Lane`: one session plus its
//! heartbeat cadence, admission counters, and reused buffers, fed one
//! input line at a time. [`serve`] drives a single untagged lane; the
//! sharded server (`crate::server`) keeps one *tagged* lane per tenant —
//! a tagged lane injects a `"tenant"` field right after `"type"` in every
//! record and is otherwise byte-identical to a single-session run.

use crate::cli::CliError;
use crate::ndjson::{parse_object_into, ObjBuf, ObjWriter, Value};
use mmsec_core::PolicyKind;
use mmsec_platform::obs::{Event as ObsEvent, FlightRecorder, ObserverHandle, Shared};
use mmsec_platform::{
    CloudId, EdgeId, EngineOptions, Instance, Job, Observer, PlatformMutation, Session,
    SessionStatus, Simulation,
};
use mmsec_sim::Time;
use std::io::{BufRead, Write};

/// Heartbeat/stats payload schema version (the `"v"` field). v3 added
/// `platform_version` and live `edges`/`clouds` counts; v4 added the
/// tier-graph fields (`tiers`, and `clouds_by_tier` on tiered
/// platforms).
pub const STATS_SCHEMA_VERSION: u32 = 4;

/// Ring capacity of the serve loop's internal flight recorder.
pub(crate) const FLIGHT_CAPACITY: usize = 512;

/// Serving-loop knobs (the binary fills these from flags).
pub struct ServeConfig {
    /// Scheduling policy.
    pub policy: PolicyKind,
    /// Seed for seeded policies.
    pub seed: u64,
    /// Engine options.
    pub engine: EngineOptions,
    /// Emit a `heartbeat` record every this many virtual seconds.
    pub heartbeat: f64,
    /// Bounded admission: shed submissions that would push the number of
    /// unfinished jobs beyond this. `None` = unbounded.
    pub max_pending: Option<usize>,
    /// Wall-clock pacing for file replay: sleep `(Δrelease)/speedup`
    /// between arrivals. `None` = as fast as possible (the only mode used
    /// in tests and CI).
    pub speedup: Option<f64>,
    /// Emit a `stats` record every this many input lines (`None` = no
    /// dedicated stats stream; heartbeats still carry the full payload).
    pub stats_every: Option<usize>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            policy: PolicyKind::SsfEdf,
            seed: 0,
            engine: EngineOptions::default(),
            heartbeat: 10.0,
            max_pending: None,
            speedup: None,
            stats_every: None,
        }
    }
}

/// Validates the cadence/pacing knobs shared by [`serve`] and the
/// sharded server (which applies them per lane).
pub(crate) fn validate_config(cfg: &ServeConfig) -> Result<(), CliError> {
    if !(cfg.heartbeat > 0.0 && cfg.heartbeat.is_finite()) {
        return Err(CliError::Usage(
            "--heartbeat must be positive seconds".into(),
        ));
    }
    if cfg.speedup.is_some_and(|x| x <= 0.0 || x.is_nan()) {
        return Err(CliError::Usage("--speedup must be positive".into()));
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
/// when the caller supplied one, to their observer too.
struct Tandem<'a> {
    flight: ObserverHandle,
    other: Option<&'a mut dyn Observer>,
}

impl Observer for Tandem<'_> {
    fn on_event(&mut self, event: &ObsEvent) {
        self.flight.on_event(event);
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
    wall_start: std::time::Instant,
    speedup: Option<f64>,
    flight: Shared<FlightRecorder>,
    /// Tenant tag injected into every record of this lane (see
    /// [`reset_rec`]); `None` for a plain single-session serve.
    tenant: Option<String>,
}

impl Pulse {
    /// Wall-vs-virtual lag in virtual seconds (how far the session is
    /// behind the replay clock). Only meaningful under `--speedup`.
    fn lag(&self, session: &Session<'_>) -> Option<f64> {
        self.speedup
            .map(|sp| self.wall_start.elapsed().as_secs_f64() * sp - session.now().seconds())
    }

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
/// decide counters, admission totals, per-interval deltas, platform
/// shape (including tier-graph fields), and the optional replay lag.
/// Updates `last` to the current totals.
fn stats_payload(
    w: &mut ObjWriter,
    session: &Session<'_>,
    summary: &ServeSummary,
    last: &mut Deltas,
    lag: Option<f64>,
) {
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
        let mut by_tier = vec![0usize; depth];
        for k in platform.spec().clouds() {
            if platform.cloud_live(k) {
                by_tier[topo.tier_of(k) - 1] += 1;
            }
        }
        let list = by_tier
            .iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join(",");
        w.str_field("clouds_by_tier", &list);
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
    if let Some(lag) = lag {
        w.num_field("lag", lag);
    }
    *last = Deltas {
        admitted: summary.admitted,
        shed: summary.shed,
        completed: s.completed,
    };
}

/// Drains finished jobs into `completion` records. Uses
/// [`Session::drain_completions`] and a reused [`ObjWriter`], so the
/// steady-state emit path allocates nothing. The per-record `target`
/// string goes through a small reused scratch buffer for the same
/// reason.
fn emit_completions(
    session: &mut Session<'_>,
    out: &mut impl Write,
    summary: &mut ServeSummary,
    w: &mut ObjWriter,
    scratch: &mut String,
    tenant: Option<&str>,
) -> Result<(), CliError> {
    use std::fmt::Write as _;
    for c in session.drain_completions() {
        summary.completed += 1;
        summary.max_stretch = summary.max_stretch.max(c.stretch);
        scratch.clear();
        let _ = write!(scratch, "{}", c.target);
        reset_rec(w, "completion", tenant);
        w.num_field("job", c.job.0 as f64)
            .str_field("target", scratch)
            .num_field("release", c.release.seconds())
            .num_field("completion", c.completion.seconds())
            .num_field("response", c.response())
            .num_field("stretch", c.stretch);
        write_line(out, w.close())?;
    }
    Ok(())
}

fn heartbeat_record<'w>(
    session: &Session<'_>,
    summary: &ServeSummary,
    pulse: &mut Pulse,
    w: &'w mut ObjWriter,
) -> &'w str {
    reset_rec(w, "heartbeat", pulse.tenant.as_deref());
    w.num_field("v", STATS_SCHEMA_VERSION as f64);
    let lag = pulse.lag(session);
    stats_payload(w, session, summary, &mut pulse.last_beat, lag);
    w.close()
}

fn stats_record<'w>(
    session: &Session<'_>,
    summary: &ServeSummary,
    pulse: &mut Pulse,
    line: usize,
    w: &'w mut ObjWriter,
) -> &'w str {
    reset_rec(w, "stats", pulse.tenant.as_deref());
    w.num_field("v", STATS_SCHEMA_VERSION as f64)
        .num_field("line", line as f64);
    let lag = pulse.lag(session);
    stats_payload(w, session, summary, &mut pulse.last_stats, lag);
    w.close()
}

/// Emits a `stats` record if `line` falls on the `--stats-every` cadence.
fn maybe_stats(
    session: &Session<'_>,
    summary: &ServeSummary,
    pulse: &mut Pulse,
    line: usize,
    out: &mut impl Write,
    w: &mut ObjWriter,
) -> Result<(), CliError> {
    if pulse.stats_every.is_some_and(|n| line % n == 0) {
        let record = stats_record(session, summary, pulse, line, w);
        write_line(out, record)?;
    }
    Ok(())
}

/// Advances the session to virtual time `target`, emitting a heartbeat at
/// every multiple of the heartbeat interval crossed on the way. Keeps
/// heartbeat timestamps strictly monotone regardless of arrival pattern.
///
/// An *unstarted* session (no release has fired yet — possible when every
/// job so far was admitted for a future release) needs special care: its
/// clock has not begun, so no heartbeat may be emitted, and pausing it at
/// a boundary before its first event is a no-op that would loop forever.
/// The first stop is therefore pushed out to the session's first queued
/// event; if even that lies beyond `target`, nothing can happen yet.
fn advance_to(
    session: &mut Session<'_>,
    target: Time,
    pulse: &mut Pulse,
    out: &mut impl Write,
    summary: &mut ServeSummary,
    w: &mut ObjWriter,
    scratch: &mut String,
) -> Result<(), CliError> {
    loop {
        let mut stop = if pulse.next_beat < target.seconds() {
            Time::new(pulse.next_beat)
        } else {
            target
        };
        if !session.started() {
            if let Some(t0) = session.next_event_time() {
                if t0 > stop {
                    stop = t0.min(target);
                }
            }
        }
        let status = session
            .run_until(stop)
            .map_err(|e| pulse.engine_failure(format!("engine: {e}")))?;
        emit_completions(session, out, summary, w, scratch, pulse.tenant.as_deref())?;
        match status {
            // Blocked: only a later submission can unblock — hand control
            // back. Done: an idle session needs no heartbeats.
            SessionStatus::Blocked | SessionStatus::Done => return Ok(()),
            SessionStatus::Reached | SessionStatus::Advanced => {}
        }
        if !session.started() {
            // Reached without starting: the session's first event lies
            // beyond `target`, so time has not begun — no boundary was
            // crossed and nothing can fire before the next arrival.
            return Ok(());
        }
        // Paused at (or past) `stop`: beat if a heartbeat boundary was
        // crossed, then continue toward `target`. A session whose next
        // event lies beyond several boundaries pauses past them all at
        // once — snap the cadence past `now` so one post-advance payload
        // covers the crossing (repeating it per boundary would duplicate
        // timestamps and re-report state from before the advance).
        if pulse.next_beat <= session.now().seconds() {
            let record = heartbeat_record(session, summary, pulse, w);
            write_line(out, record)?;
            pulse.next_beat += pulse.beat;
            while pulse.next_beat <= session.now().seconds() {
                pulse.next_beat += pulse.beat;
            }
        }
        if session.now() >= target {
            return Ok(());
        }
    }
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
    pulse: Pulse,
    summary: ServeSummary,
    max_pending: Option<usize>,
    policy_name: &'static str,
    // Reused per-line storage: the parsed fields, the output record, and
    // a small formatting scratch. A steady stream of well-formed
    // submissions allocates nothing per line in this layer.
    fields: ObjBuf,
    w: ObjWriter,
    scratch: String,
}

impl<'a> Lane<'a> {
    /// Wraps a freshly built (unstepped) session. `tenant` tags every
    /// record when set. The caller is responsible for having validated
    /// `cfg` (see [`validate_config`]).
    fn new(
        session: Session<'a>,
        cfg: &ServeConfig,
        tenant: Option<String>,
        flight: Shared<FlightRecorder>,
    ) -> Self {
        let summary = ServeSummary {
            admitted: session.instance().num_jobs(),
            ..ServeSummary::default()
        };
        Lane {
            session,
            pulse: Pulse {
                beat: cfg.heartbeat,
                next_beat: cfg.heartbeat,
                stats_every: cfg.stats_every,
                last_beat: Deltas::default(),
                last_stats: Deltas::default(),
                wall_start: std::time::Instant::now(),
                speedup: cfg.speedup,
                flight,
                tenant,
            },
            summary,
            max_pending: cfg.max_pending,
            policy_name: cfg.policy.name(),
            fields: ObjBuf::new(),
            w: ObjWriter::typed("hello"),
            scratch: String::new(),
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
    /// arrival, applies admission control, and writes the response
    /// records. Protocol violations become `reject` records; only engine
    /// failures and output I/O errors are fatal.
    pub(crate) fn handle_line(&mut self, line: &str, out: &mut impl Write) -> Result<(), CliError> {
        if line.trim().is_empty() {
            return Ok(());
        }
        self.summary.lines += 1;
        let seq = self.summary.lines;

        // Parse the line once; both record kinds (platform mutation and
        // job submission) read the same field buffer. Malformed records
        // and refused mutations (unknown unit, removed twice, bad speed,
        // last edge) produce typed `reject` records — never a fatal
        // error.
        let parsed = parse_object_into(line.trim_end(), &mut self.fields);
        if parsed.is_ok() && is_platform_record(self.fields.fields()) {
            let outcome = parse_platform(self.fields.fields()).and_then(|m| {
                self.session
                    .apply_platform(m)
                    // A mutation the runtime refused: the offending field
                    // is the op itself; the code is the runtime's stable
                    // error class.
                    .map_err(|e| Reject::new(e.code(), "op", e.to_string()))
                    .map(|v| (m, v))
            });
            match outcome {
                Ok((m, version)) => {
                    let p = self.session.platform();
                    let (edges, clouds) = (p.num_edges_live(), p.num_clouds_live());
                    reset_rec(&mut self.w, "platform-ok", self.pulse.tenant.as_deref())
                        .num_field("line", seq as f64)
                        .str_field("op", m.op())
                        .num_field("version", version as f64)
                        .num_field("edges", edges as f64)
                        .num_field("clouds", clouds as f64);
                    write_line(out, self.w.close())?;
                }
                Err(why) => {
                    self.summary.rejected += 1;
                    let w = reset_rec(&mut self.w, "reject", self.pulse.tenant.as_deref());
                    w.num_field("line", seq as f64);
                    why.write_into(w);
                    write_line(out, self.w.close())?;
                }
            }
            maybe_stats(
                &self.session,
                &self.summary,
                &mut self.pulse,
                seq,
                out,
                &mut self.w,
            )?;
            return Ok(());
        }

        let req = match parsed
            .map_err(|why| Reject::bare("parse-error", why.0))
            .and_then(|()| parse_submit(self.fields.fields()))
        {
            Ok(req) => req,
            Err(why) => {
                self.summary.rejected += 1;
                let w = reset_rec(&mut self.w, "reject", self.pulse.tenant.as_deref());
                w.num_field("line", seq as f64);
                why.write_into(w);
                write_line(out, self.w.close())?;
                maybe_stats(
                    &self.session,
                    &self.summary,
                    &mut self.pulse,
                    seq,
                    out,
                    &mut self.w,
                )?;
                return Ok(());
            }
        };

        // Bring virtual time up to the arrival (file replay of a
        // historical trace), beating on the way.
        if let Some(release) = req.release {
            if let Some(speedup) = self.pulse.speedup {
                let due = std::time::Duration::from_secs_f64(release.max(0.0) / speedup);
                if let Some(sleep) = due.checked_sub(self.pulse.wall_start.elapsed()) {
                    std::thread::sleep(sleep);
                }
            }
            if Time::new(release) > self.session.now() {
                advance_to(
                    &mut self.session,
                    Time::new(release),
                    &mut self.pulse,
                    out,
                    &mut self.summary,
                    &mut self.w,
                    &mut self.scratch,
                )?;
            }
        }

        // Bounded admission: shed (with an explicit record) rather than
        // queueing without limit.
        let unfinished = self.session.snapshot().unfinished;
        if self.max_pending.is_some_and(|cap| unfinished >= cap) {
            self.summary.shed += 1;
            reset_rec(&mut self.w, "shed", self.pulse.tenant.as_deref())
                .num_field("line", seq as f64)
                .str_field("reason", "max-pending")
                .num_field("unfinished", unfinished as f64);
            write_line(out, self.w.close())?;
            maybe_stats(
                &self.session,
                &self.summary,
                &mut self.pulse,
                seq,
                out,
                &mut self.w,
            )?;
            return Ok(());
        }

        let release = req.release.unwrap_or_else(|| self.session.now().seconds());
        match self.session.submit(Job::new(
            EdgeId(req.origin),
            release.max(0.0),
            req.work,
            req.up,
            req.dn,
        )) {
            Ok(id) => {
                self.summary.admitted += 1;
                reset_rec(&mut self.w, "admit", self.pulse.tenant.as_deref())
                    .num_field("line", seq as f64)
                    .num_field("job", id.0 as f64)
                    .num_field("release", release);
                write_line(out, self.w.close())?;
            }
            Err(e) => {
                self.summary.rejected += 1;
                self.scratch.clear();
                {
                    use std::fmt::Write as _;
                    let _ = write!(self.scratch, "{e}");
                }
                // A submission the session refused (e.g. unknown or
                // removed origin): the offending field is the origin.
                reset_rec(&mut self.w, "reject", self.pulse.tenant.as_deref())
                    .num_field("line", seq as f64)
                    .str_field("error", &self.scratch)
                    .str_field("code", e.code())
                    .str_field("field", "origin");
                write_line(out, self.w.close())?;
            }
        }
        maybe_stats(
            &self.session,
            &self.summary,
            &mut self.pulse,
            seq,
            out,
            &mut self.w,
        )?;
        Ok(())
    }

    /// Input exhausted: runs the backlog dry (still beating
    /// periodically), then emits the final `summary` record and returns
    /// the totals.
    ///
    /// As in [`advance_to`], an unstarted session's first stop is pushed
    /// out to its first queued event — pausing before it would emit
    /// heartbeats stamped with a clock that has not begun (duplicated,
    /// possibly non-monotone timestamps).
    pub(crate) fn finish(&mut self, out: &mut impl Write) -> Result<ServeSummary, CliError> {
        loop {
            let mut bound = Time::new(self.pulse.next_beat);
            if !self.session.started() {
                if let Some(t0) = self.session.next_event_time() {
                    if t0 > bound {
                        bound = t0;
                    }
                }
            }
            let status = self
                .session
                .run_until(bound)
                .map_err(|e| self.pulse.engine_failure(format!("engine: {e}")))?;
            emit_completions(
                &mut self.session,
                out,
                &mut self.summary,
                &mut self.w,
                &mut self.scratch,
                self.pulse.tenant.as_deref(),
            )?;
            match status {
                SessionStatus::Done => break,
                SessionStatus::Blocked => {
                    return Err(self.pulse.engine_failure(format!(
                        "stalled at t={} with {} unfinished job(s): the policy \
                         granted no activity and no event is queued",
                        self.session.now(),
                        self.session.snapshot().unfinished
                    )));
                }
                SessionStatus::Reached => {
                    // See `advance_to`: a pause past the boundary (the next
                    // event is several beats out) gets one heartbeat with the
                    // post-advance payload, not a stale repeat per boundary.
                    // The bound always sits at or past a boundary once the
                    // session has started, so the guard only skips the
                    // (unreachable) unstarted pause.
                    if self.session.started()
                        && self.pulse.next_beat <= self.session.now().seconds()
                    {
                        let record = heartbeat_record(
                            &self.session,
                            &self.summary,
                            &mut self.pulse,
                            &mut self.w,
                        );
                        write_line(out, record)?;
                        self.pulse.next_beat += self.pulse.beat;
                        while self.pulse.next_beat <= self.session.now().seconds() {
                            self.pulse.next_beat += self.pulse.beat;
                        }
                    }
                }
                SessionStatus::Advanced => {}
            }
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

/// Builds a self-contained tagged lane that owns its instance, policy,
/// and flight recorder: the sharded server's per-tenant session, safe to
/// store in a worker's lane map with no borrows back into the caller.
pub(crate) fn owned_lane(inst: Instance, cfg: &ServeConfig, tenant: String) -> Lane<'static> {
    let flight = Shared::new(FlightRecorder::with_capacity(FLIGHT_CAPACITY));
    let tandem = Tandem {
        flight: flight.handle(),
        other: None,
    };
    let session = Simulation::owning(inst)
        .policy_boxed(cfg.policy.build(cfg.seed))
        .options(cfg.engine)
        .observer_boxed(Box::new(tandem))
        .session();
    Lane::new(session, cfg, Some(tenant), flight)
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
    input: impl BufRead,
    mut out: impl Write,
    observer: Option<&mut dyn Observer>,
) -> Result<ServeSummary, CliError> {
    validate_config(cfg)?;
    let flight = Shared::new(FlightRecorder::with_capacity(FLIGHT_CAPACITY));
    let tandem = Tandem {
        flight: flight.handle(),
        other: observer,
    };
    let session = Simulation::of(inst)
        .policy_boxed(cfg.policy.build(cfg.seed))
        .options(cfg.engine)
        .observer_boxed(Box::new(tandem))
        .session();
    let mut lane = Lane::new(session, cfg, None, flight);
    lane.hello(&mut out)?;

    let mut line = String::new();
    let mut input = input;
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
