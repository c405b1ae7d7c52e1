//! A shard worker: owns the per-tenant [`Lane`]s hashed to it, feeds
//! them the lines the router forwards, and streams their records to each
//! connection's merger (see the module docs in [`super`]).
//!
//! Sessions are created *inside* the worker thread and never leave it —
//! the only data crossing threads is raw input lines in and rendered
//! record bytes out, so the engine needs no synchronization.
//!
//! A lane whose `handle_line` or `finish` fails — an engine error, or a
//! panic caught at that call — is torn down alone: one `error` record for
//! its tenant, its session never stepped again, and the unfinished jobs it
//! was last counted with released from the global gate. The worker keeps
//! serving the shard's other tenants.

use super::{ConnCounters, ConnId, Gate, MergeMsg, ServerConfig, ServerSummary, ShardMsg};
use crate::cli::CliError;
use crate::ndjson::{parse_object_into, ObjBuf, ObjWriter};
use crate::serve::{Lane, Reject, ServeSummary};
use mmsec_platform::{Instance, Simulation};
use std::collections::HashMap;
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};

/// One tenant's serving loop plus the bookkeeping snapshots used to
/// publish per-line deltas into the connection counters and the global
/// admission gauge.
struct LaneSlot {
    lane: Lane<'static>,
    /// The lane's summary as of the previous line (for counter deltas).
    last: ServeSummary,
    /// Unfinished jobs as of the previous line (for the gate delta).
    unfinished: usize,
}

impl LaneSlot {
    /// Publishes the lane's counter deltas since the last call into the
    /// connection counters (the merger's heartbeat payload). Reads the
    /// lane's summary only, never its session.
    fn publish_counts(&mut self, counters: &ConnCounters) {
        let s = *self.lane.summary();
        counters
            .lines
            .fetch_add(s.lines - self.last.lines, Ordering::Relaxed);
        counters
            .admitted
            .fetch_add(s.admitted - self.last.admitted, Ordering::Relaxed);
        counters
            .shed
            .fetch_add(s.shed - self.last.shed, Ordering::Relaxed);
        counters
            .rejected
            .fetch_add(s.rejected - self.last.rejected, Ordering::Relaxed);
        counters
            .completed
            .fetch_add(s.completed - self.last.completed, Ordering::Relaxed);
        self.last = s;
    }

    /// Retires the lane from its connection: publishes its last counter
    /// deltas, releases from the gate the unfinished jobs it was last
    /// counted with, and folds its summary into `totals`. A finished lane
    /// holds no work and a failed one is not read again, so the count last
    /// published is what to release either way.
    fn retire(mut self, counters: &ConnCounters, gate: &Gate, totals: &mut ServerSummary) {
        self.publish_counts(counters);
        gate.add(-(self.unfinished as isize));
        totals.absorb(&self.last);
    }
}

struct ConnState {
    out: mpsc::Sender<MergeMsg>,
    counters: Arc<ConnCounters>,
    /// Totals of lanes closed before EOF (failed lanes) plus bad `spec`
    /// records that never created a lane.
    closed: ServerSummary,
}

/// Runs one lane call, turning a panic inside it into an error: a
/// panicking lane then fails like an erroring one, instead of unwinding
/// the worker thread and every tenant of the shard with it.
fn guarded<T>(call: impl FnOnce() -> Result<T, CliError>) -> Result<T, CliError> {
    catch_unwind(AssertUnwindSafe(call)).unwrap_or_else(|payload| {
        let why = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("unknown cause");
        Err(CliError::Failure(format!("lane panicked: {why}")))
    })
}

/// What a tenant's first line turned out to be.
enum FirstLine {
    /// Not a `spec` record: create the lane from the server's default
    /// platform and feed it the line.
    NotSpec,
    /// A well-formed `spec` record: create the lane on this platform
    /// (the line itself is consumed).
    Spec(Box<Instance>),
    /// A `spec` record with a protocol violation: reject, create no lane.
    BadSpec(Reject),
}

/// Parses a prospective `{"type": "spec", ...}` platform record; the
/// field schema (counts, per-unit speed lists, tier hops, unavailability
/// windows) is shared with the trace codec — see [`crate::trace`].
fn parse_spec_line(line: &str, fields: &mut ObjBuf) -> FirstLine {
    if parse_object_into(line, fields).is_err() {
        return FirstLine::NotSpec;
    }
    if !fields
        .fields()
        .iter()
        .any(|(k, v)| k == "type" && v.as_str() == Some("spec"))
    {
        return FirstLine::NotSpec;
    }
    let spec = match crate::trace::parse_spec_fields(fields.fields()) {
        Ok(spec) => spec,
        Err(why) => return FirstLine::BadSpec(why),
    };
    match Instance::new(spec, Vec::new()) {
        Ok(inst) => FirstLine::Spec(Box::new(inst)),
        Err(e) => FirstLine::BadSpec(Reject::new(e.code(), "", e.to_string())),
    }
}

fn push_record(buf: &mut Vec<u8>, record: &str) {
    // Writing to a Vec cannot fail.
    let _ = writeln!(buf, "{record}");
}

/// Appends the `error` record of a failed lane.
fn error_record(w: &mut ObjWriter, buf: &mut Vec<u8>, tenant: &str, e: &CliError) {
    w.reset("error");
    w.str_field("tenant", tenant)
        .str_field("error", &e.to_string());
    push_record(buf, w.close());
}

/// The worker loop: runs until every [`super::ShardTx`] handle is gone.
pub(crate) fn run(rx: mpsc::Receiver<ShardMsg>, inst: &Instance, cfg: &ServerConfig, gate: &Gate) {
    let mut lanes: HashMap<(ConnId, String), LaneSlot> = HashMap::new();
    let mut conns: HashMap<ConnId, ConnState> = HashMap::new();
    let mut fields = ObjBuf::new();
    let mut w = ObjWriter::typed("spec-ok");
    let mut buf: Vec<u8> = Vec::with_capacity(512);
    while let Ok(msg) = rx.recv() {
        match msg {
            ShardMsg::Open {
                conn,
                out,
                counters,
            } => {
                conns.insert(
                    conn,
                    ConnState {
                        out,
                        counters,
                        closed: ServerSummary::default(),
                    },
                );
            }
            ShardMsg::Line { conn, tenant, line } => {
                let Some(cs) = conns.get_mut(&conn) else {
                    continue;
                };
                buf.clear();
                let key = (conn, tenant);
                if !lanes.contains_key(&key) {
                    let tenant = &key.1;
                    let lane_inst = match parse_spec_line(&line, &mut fields) {
                        FirstLine::BadSpec(why) => {
                            cs.counters.lines.fetch_add(1, Ordering::Relaxed);
                            cs.counters.rejected.fetch_add(1, Ordering::Relaxed);
                            cs.closed.rejected += 1;
                            w.reset("reject");
                            w.str_field("tenant", tenant);
                            why.write_into(&mut w);
                            push_record(&mut buf, w.close());
                            let _ = cs.out.send(MergeMsg::Records(std::mem::take(&mut buf)));
                            continue;
                        }
                        FirstLine::Spec(spec_inst) => Some(*spec_inst),
                        FirstLine::NotSpec => None,
                    };
                    let consumed = lane_inst.is_some();
                    if let Some(i) = &lane_inst {
                        cs.counters.lines.fetch_add(1, Ordering::Relaxed);
                        w.reset("spec-ok");
                        w.str_field("tenant", tenant)
                            .num_field("edges", i.spec.num_edge() as f64)
                            .num_field("clouds", i.spec.num_cloud() as f64);
                        push_record(&mut buf, w.close());
                    }
                    let sim = Simulation::owning(lane_inst.unwrap_or_else(|| inst.clone()));
                    let mut lane = Lane::new(sim, &cfg.serve, Some(tenant.clone()), None);
                    cs.counters.lanes.fetch_add(1, Ordering::Relaxed);
                    lane.hello(&mut buf).expect("writing to a Vec cannot fail");
                    let slot = LaneSlot {
                        unfinished: lane.unfinished(),
                        last: *lane.summary(),
                        lane,
                    };
                    lanes.insert(key.clone(), slot);
                    if consumed {
                        let _ = cs.out.send(MergeMsg::Records(std::mem::take(&mut buf)));
                        continue;
                    }
                }
                let slot = lanes.get_mut(&key).expect("lane was just ensured");
                match guarded(|| slot.lane.handle_line(&line, &mut buf)) {
                    Ok(()) => {
                        slot.publish_counts(&cs.counters);
                        let unfinished = slot.lane.unfinished();
                        gate.add(unfinished as isize - slot.unfinished as isize);
                        slot.unfinished = unfinished;
                    }
                    Err(e) => {
                        error_record(&mut w, &mut buf, &key.1, &e);
                        let slot = lanes.remove(&key).expect("present");
                        slot.retire(&cs.counters, gate, &mut cs.closed);
                    }
                }
                if !buf.is_empty() {
                    let _ = cs.out.send(MergeMsg::Records(std::mem::take(&mut buf)));
                }
            }
            ShardMsg::Eof { conn } => {
                let Some(mut cs) = conns.remove(&conn) else {
                    continue;
                };
                // Drain this connection's lanes in tenant order so the
                // relative order of end-of-stream records is deterministic.
                let mut tenants: Vec<String> = lanes
                    .keys()
                    .filter(|k| k.0 == conn)
                    .map(|k| k.1.clone())
                    .collect();
                tenants.sort();
                buf.clear();
                for tenant in tenants {
                    let mut slot = lanes.remove(&(conn, tenant.clone())).expect("listed");
                    if let Err(e) = guarded(|| slot.lane.finish(&mut buf)) {
                        error_record(&mut w, &mut buf, &tenant, &e);
                    }
                    slot.retire(&cs.counters, gate, &mut cs.closed);
                }
                if !buf.is_empty() {
                    let _ = cs.out.send(MergeMsg::Records(std::mem::take(&mut buf)));
                }
                let _ = cs.out.send(MergeMsg::Done(cs.closed));
            }
        }
    }
}
