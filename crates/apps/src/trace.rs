//! NDJSON trace codec: export an [`Instance`] as a replayable job stream,
//! import one back — the batch and streaming paths share one format.
//!
//! A trace is newline-delimited flat JSON in the `mmsec serve` record
//! schema:
//!
//! ```text
//! {"type":"spec","edge-speeds":"0.5,0.8","cloud-speeds":"1,1","hop-up":"1","hop-dn":"1.25","cloud-tiers":"1,1"}
//! {"type":"job","origin":0,"release":0,"work":2.5,"up":0.5,"dn":0.25}
//! {"type":"job","origin":1,"release":1.5,"work":4,"up":0,"dn":0}
//! ```
//!
//! * The leading `spec` record is exactly the sharded server's
//!   first-line platform record (`crate::server`): piping a trace into
//!   `mmsec serve --shards N` replays it *streaming*, creating the lane
//!   on the trace's own platform.
//! * Each `job` record is a plain serve submission line (the `type` tag
//!   is tolerated by the submit parser), so the job lines also feed the
//!   single-session `mmsec serve --input` path.
//! * [`read_trace`] turns the same bytes back into an [`Instance`] for
//!   *batch* simulation — `export → import` is bit-identical (numbers
//!   are serialized in shortest round-trip form).
//!
//! ## The `spec` record
//!
//! Two platform forms, sharing one parser (`parse_spec_fields`) with
//! the sharded server:
//!
//! * count form — `edges` / `clouds` unit counts with uniform
//!   `edge-speed` / `cloud-speed` (default 1.0);
//! * list form — `edge-speeds` / `cloud-speeds` comma-joined per-unit
//!   speeds (what the exporter writes; mixing the two forms for the same
//!   side is rejected).
//!
//! Continuum platforms add `hop-up` / `hop-dn` (comma-joined per-hop
//! link-time factors, equal length = tier depth) and optionally
//! `cloud-tiers` (per-cloud tier in `1..=depth`, default: the deepest
//! tier). Cloud unavailability windows ride in `unavail` as
//! semicolon-joined `cloud:start:end` triples. The records stay *flat*
//! (scalar fields only) — lists are strings, not JSON arrays — so the
//! whole protocol keeps parsing with the zero-allocation
//! [`crate::ndjson`] reader.

use crate::cli::CliError;
use crate::ndjson::{parse_object_into, write_num, ObjBuf, ObjWriter, Value};
use crate::serve::Reject;
use mmsec_platform::{CloudId, EdgeId, Instance, Job, PlatformSpec};
use mmsec_sim::Interval;
use std::io::{BufRead, Write};

/// Unit-count cap shared by every spec-record consumer (a typo'd count
/// must not allocate gigabytes of platform tables).
const MAX_UNITS: f64 = 4096.0;

fn bad(field: &str, message: String) -> Reject {
    Reject::new("bad-value", field, message)
}

/// Parses a comma-joined list of numbers (`"1,2.5,0.8"`).
fn num_list(field: &str, text: &str) -> Result<Vec<f64>, Reject> {
    let mut out = Vec::new();
    for part in text.split(',') {
        let x: f64 = part
            .trim()
            .parse()
            .map_err(|_| bad(field, format!("field {field:?}: bad number {part:?}")))?;
        if !x.is_finite() {
            return Err(bad(
                field,
                format!("field {field:?}: non-finite entry {part:?}"),
            ));
        }
        out.push(x);
    }
    if out.len() as f64 > MAX_UNITS {
        return Err(bad(
            field,
            format!("field {field:?}: more than {MAX_UNITS} entries"),
        ));
    }
    Ok(out)
}

/// Parses a prospective `{"type": "spec", ...}` record's fields into a
/// platform. Shared by the sharded server's first-line handling and the
/// trace importer; see the module docs for the schema.
pub(crate) fn parse_spec_fields(fields: &[(String, Value)]) -> Result<PlatformSpec, Reject> {
    let mut edges: Option<f64> = None;
    let mut clouds: Option<f64> = None;
    let mut edge_speed = 1.0f64;
    let mut cloud_speed = 1.0f64;
    let mut edge_speeds: Option<Vec<f64>> = None;
    let mut cloud_speeds: Option<Vec<f64>> = None;
    let mut hop_up: Option<Vec<f64>> = None;
    let mut hop_dn: Option<Vec<f64>> = None;
    let mut cloud_tiers: Option<Vec<f64>> = None;
    let mut unavail: Vec<(usize, f64, f64)> = Vec::new();
    for (key, value) in fields {
        let num = |v: &Value| {
            v.as_num().ok_or_else(|| {
                Reject::new("bad-type", key, format!("field {key:?} must be a number"))
            })
        };
        let list = |v: &Value| {
            let s = v.as_str().ok_or_else(|| {
                Reject::new(
                    "bad-type",
                    key,
                    format!("field {key:?} must be a comma-joined string"),
                )
            })?;
            num_list(key, s)
        };
        match key.as_str() {
            "type" | "tenant" | "id" | "tag" => {}
            "edges" => edges = Some(num(value)?),
            "clouds" => clouds = Some(num(value)?),
            "edge-speed" => edge_speed = num(value)?,
            "cloud-speed" => cloud_speed = num(value)?,
            "edge-speeds" => edge_speeds = Some(list(value)?),
            "cloud-speeds" => cloud_speeds = Some(list(value)?),
            "hop-up" => hop_up = Some(list(value)?),
            "hop-dn" => hop_dn = Some(list(value)?),
            "cloud-tiers" => cloud_tiers = Some(list(value)?),
            "unavail" => {
                let s = value.as_str().ok_or_else(|| {
                    Reject::new(
                        "bad-type",
                        key,
                        "field \"unavail\" must be a semicolon-joined string",
                    )
                })?;
                for triple in s.split(';').filter(|t| !t.trim().is_empty()) {
                    let parts: Vec<&str> = triple.split(':').collect();
                    let parsed = (parts.len() == 3)
                        .then(|| {
                            Some((
                                parts[0].trim().parse::<usize>().ok()?,
                                parts[1].trim().parse::<f64>().ok()?,
                                parts[2].trim().parse::<f64>().ok()?,
                            ))
                        })
                        .flatten();
                    match parsed {
                        Some(w) => unavail.push(w),
                        None => {
                            return Err(bad(
                                key,
                                format!("bad window {triple:?} (want cloud:start:end)"),
                            ))
                        }
                    }
                }
            }
            other => {
                return Err(Reject::new(
                    "unknown-field",
                    other,
                    format!("unknown field {other:?}"),
                ))
            }
        }
    }

    // Counts and per-unit lists are alternative forms of the same thing;
    // mixing them for one side would be ambiguous.
    if edges.is_some() && edge_speeds.is_some() {
        return Err(bad(
            "edges",
            "give either \"edges\" or \"edge-speeds\", not both".into(),
        ));
    }
    if clouds.is_some() && cloud_speeds.is_some() {
        return Err(bad(
            "clouds",
            "give either \"clouds\" or \"cloud-speeds\", not both".into(),
        ));
    }
    for (name, count) in [("edges", edges), ("clouds", clouds)] {
        if let Some(count) = count {
            if count < 0.0 || count.fract() != 0.0 || count > MAX_UNITS {
                return Err(bad(
                    name,
                    format!("field {name:?} must be a small non-negative integer, got {count}"),
                ));
            }
        }
    }
    let edge_speeds =
        edge_speeds.unwrap_or_else(|| vec![edge_speed; edges.unwrap_or(1.0) as usize]);
    let cloud_speeds =
        cloud_speeds.unwrap_or_else(|| vec![cloud_speed; clouds.unwrap_or(0.0) as usize]);
    if edge_speeds.is_empty() {
        return Err(bad("edges", "a platform needs at least one edge".into()));
    }

    // Tier graph: both hop lists or neither, equal length; tiers must be
    // integers (range-checking is the spec builder's job).
    let hops: Option<Vec<(f64, f64)>> = match (hop_up, hop_dn) {
        (None, None) => None,
        (Some(up), Some(dn)) => {
            if up.len() != dn.len() {
                return Err(bad(
                    "hop-dn",
                    "\"hop-up\" and \"hop-dn\" must list the same number of hops".into(),
                ));
            }
            Some(up.into_iter().zip(dn).collect())
        }
        _ => {
            return Err(Reject::new(
                "missing-field",
                "hop-up",
                "\"hop-up\" and \"hop-dn\" come together",
            ))
        }
    };
    if cloud_tiers.is_some() && hops.is_none() {
        return Err(bad(
            "cloud-tiers",
            "cloud tiers given but no hop records".into(),
        ));
    }

    let n_clouds = cloud_speeds.len();
    let mut b = PlatformSpec::builder().edges(edge_speeds);
    match hops {
        None => b = b.clouds(cloud_speeds),
        Some(hops) => {
            let depth = hops.len();
            for (u, d) in hops {
                b = b.tier(u, d);
            }
            let tiers = match cloud_tiers {
                None => vec![depth; cloud_speeds.len()],
                Some(list) => {
                    if list.len() != cloud_speeds.len() {
                        return Err(bad(
                            "cloud-tiers",
                            "\"cloud-tiers\" must list one tier per cloud".into(),
                        ));
                    }
                    let mut tiers = Vec::with_capacity(list.len());
                    for t in list {
                        if t < 0.0 || t.fract() != 0.0 {
                            return Err(bad(
                                "cloud-tiers",
                                format!("tiers must be non-negative integers, got {t}"),
                            ));
                        }
                        tiers.push(t as usize);
                    }
                    tiers
                }
            };
            for (s, t) in cloud_speeds.into_iter().zip(tiers) {
                b = b.cloud_at(s, t);
            }
        }
    }
    for (k, start, end) in unavail {
        if k >= n_clouds {
            return Err(bad("unavail", format!("window names unknown cloud {k}")));
        }
        if !(start.is_finite() && end.is_finite() && end >= start && start >= 0.0) {
            return Err(bad("unavail", format!("bad window [{start}, {end})")));
        }
        b = b.unavailability(CloudId(k), Interval::from_secs(start, end));
    }
    b.try_build()
        .map_err(|e| Reject::new("bad-spec", "", e.to_string()))
}

fn join_nums(values: impl Iterator<Item = f64>) -> String {
    let mut out = String::new();
    for (i, x) in values.enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_num(&mut out, x);
    }
    out
}

/// Renders the platform as one `{"type":"spec",...}` record (no trailing
/// newline). Always writes the list form.
pub(crate) fn spec_record(spec: &PlatformSpec) -> String {
    let mut w = ObjWriter::typed("spec");
    w.str_field(
        "edge-speeds",
        &join_nums(spec.edges().map(|j| spec.edge_speed(j))),
    );
    w.str_field(
        "cloud-speeds",
        &join_nums(spec.clouds().map(|k| spec.cloud_speed(k))),
    );
    if let Some(topo) = spec.tier_topology() {
        let depth = topo.depth();
        w.str_field("hop-up", &join_nums((0..depth).map(|t| topo.hop(t).0)));
        w.str_field("hop-dn", &join_nums((0..depth).map(|t| topo.hop(t).1)));
        w.str_field(
            "cloud-tiers",
            &join_nums(spec.clouds().map(|k| topo.tier_of(k) as f64)),
        );
    }
    if spec.has_unavailability() {
        let mut windows = String::new();
        for k in spec.clouds() {
            for iv in spec.cloud_unavailability(k).iter() {
                if !windows.is_empty() {
                    windows.push(';');
                }
                use std::fmt::Write as _;
                let _ = write!(windows, "{}:", k.0);
                write_num(&mut windows, iv.start().seconds());
                windows.push(':');
                write_num(&mut windows, iv.end().seconds());
            }
        }
        w.str_field("unavail", &windows);
    }
    w.finish()
}

/// Exports `inst` as an NDJSON trace: one `spec` record, then one `job`
/// record per job in id order.
pub fn write_trace(inst: &Instance, out: &mut impl Write) -> Result<(), CliError> {
    let io = |e: std::io::Error| CliError::Io(format!("trace output: {e}"));
    writeln!(out, "{}", spec_record(&inst.spec)).map_err(io)?;
    let mut w = ObjWriter::typed("job");
    for job in &inst.jobs {
        w.reset("job");
        w.num_field("origin", job.origin.0 as f64)
            .num_field("release", job.release.seconds())
            .num_field("work", job.work)
            .num_field("up", job.up)
            .num_field("dn", job.dn);
        writeln!(out, "{}", w.close()).map_err(io)?;
    }
    Ok(())
}

/// Imports an NDJSON trace back into an [`Instance`]: the first
/// non-empty line must be the `spec` record; every following line must
/// be a job submission (the serve schema — `type`/`id`/`tag`/`tenant`
/// tags are tolerated, `release` defaults to 0).
pub fn read_trace(input: impl BufRead) -> Result<Instance, CliError> {
    let mut fields = ObjBuf::new();
    let mut spec: Option<PlatformSpec> = None;
    let mut jobs: Vec<Job> = Vec::new();
    for (idx, line) in input.lines().enumerate() {
        let lineno = idx + 1;
        let line = line.map_err(|e| CliError::Io(format!("trace input: {e}")))?;
        if line.trim().is_empty() {
            continue;
        }
        parse_object_into(line.trim_end(), &mut fields)
            .map_err(|e| CliError::Validation(format!("trace line {lineno}: {e}")))?;
        let kind = fields
            .fields()
            .iter()
            .find_map(|(k, v)| (k == "type").then(|| v.as_str().unwrap_or("")))
            .unwrap_or("");
        if kind == "spec" {
            if spec.is_some() || !jobs.is_empty() {
                return Err(CliError::Validation(format!(
                    "trace line {lineno}: the spec record must come first, exactly once"
                )));
            }
            spec = Some(parse_spec_fields(fields.fields()).map_err(|e| {
                CliError::Validation(format!("trace line {lineno}: {}", e.message))
            })?);
            continue;
        }
        let req = crate::serve::parse_submit(fields.fields())
            .map_err(|e| CliError::Validation(format!("trace line {lineno}: {}", e.message)))?;
        if spec.is_none() {
            return Err(CliError::Validation(format!(
                "trace line {lineno}: job before the spec record"
            )));
        }
        jobs.push(Job::new(
            EdgeId(req.origin),
            req.release.unwrap_or(0.0),
            req.work,
            req.up,
            req.dn,
        ));
    }
    let spec = spec.ok_or_else(|| CliError::Validation("trace has no spec record".into()))?;
    Instance::new(spec, jobs).map_err(|e| CliError::Validation(format!("trace: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmsec_platform::TierTopology;

    fn tiered_instance() -> Instance {
        let spec = PlatformSpec::builder()
            .edges(vec![0.5, 0.8])
            .tier(1.0, 1.25)
            .cloud(1.0)
            .tier(2.5, 2.0)
            .cloud(4.0)
            .unavailability(CloudId(0), Interval::from_secs(3.0, 5.5))
            .build();
        Instance::new(
            spec,
            vec![
                Job::new(EdgeId(0), 0.0, 2.5, 0.5, 0.25),
                Job::new(EdgeId(1), 1.5, 4.0, 0.0, 0.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn export_import_is_bit_identical() {
        for inst in [tiered_instance(), mmsec_platform::figure1_instance()] {
            let mut buf = Vec::new();
            write_trace(&inst, &mut buf).unwrap();
            let back = read_trace(buf.as_slice()).unwrap();
            assert_eq!(back, inst);
        }
    }

    #[test]
    fn spec_record_parses_count_and_list_forms() {
        let line = r#"{"type":"spec","edges":2,"clouds":3,"cloud-speed":2.0}"#;
        let fields = crate::ndjson::parse_object(line).unwrap();
        let spec = parse_spec_fields(&fields).unwrap();
        assert_eq!(spec.num_edge(), 2);
        assert_eq!(spec.num_cloud(), 3);
        assert_eq!(spec.cloud_speed(CloudId(1)), 2.0);
        assert!(!spec.has_tiers());

        let line = r#"{"type":"spec","edge-speeds":"0.5, 0.8","cloud-speeds":"1","hop-up":"1,2","hop-dn":"1,3"}"#;
        let fields = crate::ndjson::parse_object(line).unwrap();
        let spec = parse_spec_fields(&fields).unwrap();
        assert_eq!(spec.num_edge(), 2);
        let topo: &TierTopology = spec.tier_topology().unwrap();
        assert_eq!(topo.depth(), 2);
        // No cloud-tiers: clouds default to the deepest tier.
        assert_eq!(topo.tier_of(CloudId(0)), 2);
        assert_eq!(spec.path_up(CloudId(0)), 3.0);
    }

    #[test]
    fn spec_record_rejects_carry_field_and_code() {
        let cases = [
            (
                r#"{"type":"spec","edges":2,"edge-speeds":"1,1"}"#,
                "edges",
                "bad-value",
            ),
            (r#"{"type":"spec","hop-up":"1"}"#, "hop-up", "missing-field"),
            (r#"{"type":"spec","bogus":1}"#, "bogus", "unknown-field"),
            (r#"{"type":"spec","edges":"two"}"#, "edges", "bad-type"),
            (
                r#"{"type":"spec","hop-up":"1","hop-dn":"1","cloud-tiers":"1"}"#,
                "cloud-tiers",
                "bad-value",
            ),
            (
                r#"{"type":"spec","clouds":1,"unavail":"0:1:5;0:3:8"}"#,
                "",
                "bad-spec",
            ),
        ];
        for (line, field, code) in cases {
            let fields = crate::ndjson::parse_object(line).unwrap();
            let err = parse_spec_fields(&fields).unwrap_err();
            assert_eq!(err.field, field, "{line}");
            assert_eq!(err.code, code, "{line}");
        }
    }

    #[test]
    fn import_rejects_malformed_traces() {
        let no_spec = "{\"origin\":0,\"work\":1}\n";
        assert!(read_trace(no_spec.as_bytes()).is_err());
        let job_first = "{\"origin\":0,\"work\":1}\n{\"type\":\"spec\",\"edges\":1}\n";
        assert!(read_trace(job_first.as_bytes()).is_err());
        let two_specs = "{\"type\":\"spec\",\"edges\":1}\n{\"type\":\"spec\",\"edges\":1}\n";
        assert!(read_trace(two_specs.as_bytes()).is_err());
    }
}
