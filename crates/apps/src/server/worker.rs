//! A shard worker: owns the per-tenant [`Lane`]s hashed to it, feeds
//! them the lines the router forwards, and streams their records to each
//! connection's merger (see the module docs in [`super`]).
//!
//! Sessions are created *inside* the worker thread and never leave it —
//! the only data crossing threads is raw input lines in and rendered
//! record bytes out, so the engine needs no synchronization.
//!
//! Each line's records are appended to its connection's pending output,
//! which goes to the merger as one message when the worker's input queue
//! runs empty, when it reaches [`BATCH_BYTES`], when the worker turns to
//! a line of another connection, and at the connection's EOF. At a light
//! load every line's records leave alone, as soon as the line is served;
//! under one connection's backlog one message carries many lines.
//!
//! A lane whose `handle_line` or `finish` fails — an engine error, or a
//! panic caught at that call — is torn down alone: one `error` record for
//! its tenant, its session never stepped again, and the unfinished jobs it
//! was last counted with released from the global gate. The worker keeps
//! serving the shard's other tenants. The tenant's later lines on the
//! connection are each rejected with code `lane-failed`; no new lane
//! replaces the failed one.

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

/// A connection's pending output is sent once it holds this many bytes,
/// even while the worker's input queue stays non-empty.
const BATCH_BYTES: usize = 16 * 1024;

struct ConnState {
    out: mpsc::Sender<MergeMsg>,
    counters: Arc<ConnCounters>,
    /// Totals of lanes closed before EOF (failed lanes) plus lines
    /// rejected without a lane (bad `spec` records, lines of a failed
    /// tenant).
    closed: ServerSummary,
    /// Records not yet sent to the merger, whole lines only.
    pending: Vec<u8>,
    /// Tenants whose lane failed, each with the number of lines it has
    /// sent so far (its next line's `line` number, less one).
    failed: HashMap<String, usize>,
}

impl ConnState {
    /// Sends the pending records to the merger as one message.
    fn send_pending(&mut self) {
        if !self.pending.is_empty() {
            // A send fails only once the merger is gone; nothing would
            // read the records then.
            let _ = self
                .out
                .send(MergeMsg::Records(std::mem::take(&mut self.pending)));
        }
    }

    /// Answers a line that no lane serves with a `reject` record, and
    /// counts it.
    fn reject(&mut self, w: &mut ObjWriter, tenant: &str, line: Option<usize>, why: &Reject) {
        self.counters.lines.fetch_add(1, Ordering::Relaxed);
        self.counters.rejected.fetch_add(1, Ordering::Relaxed);
        self.closed.rejected += 1;
        w.reset("reject");
        w.str_field("tenant", tenant);
        if let Some(n) = line {
            w.num_field("line", n as f64);
        }
        why.write_into(w);
        push_record(&mut self.pending, w.close());
    }
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

/// Creates the tenant's lane on `inst` and writes its `hello`.
fn open_lane(
    lanes: &mut HashMap<(ConnId, String), LaneSlot>,
    key: (ConnId, String),
    inst: Instance,
    cs: &mut ConnState,
    cfg: &ServerConfig,
) {
    let mut lane = Lane::new(
        Simulation::owning(inst),
        &cfg.serve,
        Some(key.1.clone()),
        None,
    );
    cs.counters.lanes.fetch_add(1, Ordering::Relaxed);
    lane.hello(&mut cs.pending)
        .expect("writing to a Vec cannot fail");
    let slot = LaneSlot {
        unfinished: lane.unfinished(),
        last: *lane.summary(),
        lane,
    };
    lanes.insert(key, slot);
}

/// Feeds one line to the tenant's lane. A lane that fails is retired,
/// and its tenant is marked failed on the connection.
fn feed(
    lanes: &mut HashMap<(ConnId, String), LaneSlot>,
    key: (ConnId, String),
    line: &str,
    cs: &mut ConnState,
    w: &mut ObjWriter,
    gate: &Gate,
) {
    let slot = lanes.get_mut(&key).expect("the tenant has a lane");
    match guarded(|| slot.lane.handle_line(line, &mut cs.pending)) {
        Ok(()) => {
            slot.publish_counts(&cs.counters);
            let unfinished = slot.lane.unfinished();
            gate.add(unfinished as isize - slot.unfinished as isize);
            slot.unfinished = unfinished;
        }
        Err(e) => {
            error_record(w, &mut cs.pending, &key.1, &e);
            let slot = lanes.remove(&key).expect("present");
            let lines = slot.lane.summary().lines;
            slot.retire(&cs.counters, gate, &mut cs.closed);
            cs.failed.insert(key.1, lines);
        }
    }
}

/// The worker loop: runs until every [`super::ShardTx`] handle is gone.
pub(crate) fn run(rx: mpsc::Receiver<ShardMsg>, inst: &Instance, cfg: &ServerConfig, gate: &Gate) {
    let mut lanes: HashMap<(ConnId, String), LaneSlot> = HashMap::new();
    let mut conns: HashMap<ConnId, ConnState> = HashMap::new();
    let mut fields = ObjBuf::new();
    let mut w = ObjWriter::typed("spec-ok");
    // The connection whose line was served last.
    let mut last: Option<ConnId> = None;
    loop {
        let msg = match rx.try_recv() {
            Ok(msg) => msg,
            Err(mpsc::TryRecvError::Empty) => {
                // Nothing left to serve: send every batch before waiting.
                conns.values_mut().for_each(ConnState::send_pending);
                match rx.recv() {
                    Ok(msg) => msg,
                    Err(mpsc::RecvError) => break,
                }
            }
            Err(mpsc::TryRecvError::Disconnected) => break,
        };
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
                        pending: Vec::new(),
                        failed: HashMap::new(),
                    },
                );
            }
            ShardMsg::Line { conn, tenant, line } => {
                // A connection's records wait behind its own backlog only,
                // never behind another connection's.
                if let Some(prev) = last.replace(conn).filter(|&c| c != conn) {
                    if let Some(cs) = conns.get_mut(&prev) {
                        cs.send_pending();
                    }
                }
                let Some(cs) = conns.get_mut(&conn) else {
                    continue;
                };
                let key = (conn, tenant);
                if let Some(lines) = cs.failed.get_mut(&key.1) {
                    *lines += 1;
                    let line = *lines;
                    let why = Reject::bare(
                        "lane-failed",
                        "the tenant's lane failed earlier on this connection",
                    );
                    cs.reject(&mut w, &key.1, Some(line), &why);
                } else if lanes.contains_key(&key) {
                    feed(&mut lanes, key, &line, cs, &mut w, gate);
                } else {
                    match parse_spec_line(&line, &mut fields) {
                        FirstLine::BadSpec(why) => cs.reject(&mut w, &key.1, None, &why),
                        FirstLine::Spec(spec_inst) => {
                            // The spec line itself is consumed.
                            cs.counters.lines.fetch_add(1, Ordering::Relaxed);
                            w.reset("spec-ok");
                            w.str_field("tenant", &key.1)
                                .num_field("edges", spec_inst.spec.num_edge() as f64)
                                .num_field("clouds", spec_inst.spec.num_cloud() as f64);
                            push_record(&mut cs.pending, w.close());
                            open_lane(&mut lanes, key, *spec_inst, cs, cfg);
                        }
                        FirstLine::NotSpec => {
                            open_lane(&mut lanes, key.clone(), inst.clone(), cs, cfg);
                            feed(&mut lanes, key, &line, cs, &mut w, gate);
                        }
                    }
                }
                if cs.pending.len() >= BATCH_BYTES {
                    cs.send_pending();
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
                for tenant in tenants {
                    let mut slot = lanes.remove(&(conn, tenant.clone())).expect("listed");
                    if let Err(e) = guarded(|| slot.lane.finish(&mut cs.pending)) {
                        error_record(&mut w, &mut cs.pending, &tenant, &e);
                    }
                    slot.retire(&cs.counters, gate, &mut cs.closed);
                }
                cs.send_pending();
                let _ = cs.out.send(MergeMsg::Done(cs.closed));
            }
        }
    }
    // The input channel disconnected: send what is left.
    conns.values_mut().for_each(ConnState::send_pending);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ndjson::parse_object;
    use mmsec_platform::PlatformSpec;
    use std::time::Duration;

    fn platform() -> Instance {
        let spec = PlatformSpec::builder()
            .edges(vec![0.5, 0.8])
            .cloud_pool(2)
            .build();
        Instance::new(spec, vec![]).expect("a valid platform")
    }

    fn open(out: mpsc::Sender<MergeMsg>) -> ShardMsg {
        ShardMsg::Open {
            conn: 1,
            out,
            counters: Arc::default(),
        }
    }

    /// Job line `i` of tenant "t": released at `i`, so every line also
    /// completes the jobs before it and crosses heartbeat boundaries.
    fn job(i: usize) -> ShardMsg {
        ShardMsg::Line {
            conn: 1,
            tenant: "t".into(),
            line: format!(
                r#"{{"tenant":"t","origin":{},"release":{i},"work":0.5}}"#,
                i % 2
            ),
        }
    }

    /// The `type` and, when present, the `line` of each record in `bytes`,
    /// with the offset just past the record.
    fn records(bytes: &[u8]) -> Vec<(String, Option<f64>, usize)> {
        let text = std::str::from_utf8(bytes).expect("records are UTF-8");
        let mut end = 0;
        text.lines()
            .map(|rec| {
                end += rec.len() + 1;
                let fields = parse_object(rec).expect("records parse");
                let get = |key: &str| fields.iter().find(|(k, _)| k == key).map(|f| &f.1);
                let kind = get("type").and_then(|v| v.as_str()).expect("typed");
                (kind.to_string(), get("line").and_then(|v| v.as_num()), end)
            })
            .collect()
    }

    #[test]
    fn a_backlog_leaves_in_batches_of_at_most_the_cap_plus_one_line() {
        let (inst, cfg, gate) = (platform(), ServerConfig::default(), Gate::new());
        let (merge_tx, merge_rx) = mpsc::channel();
        let (tx, rx) = mpsc::channel();
        tx.send(open(merge_tx)).expect("queued");
        for i in 0..200 {
            tx.send(job(i)).expect("queued");
        }
        tx.send(ShardMsg::Eof { conn: 1 }).expect("queued");
        drop(tx);
        // Every line is queued before the worker starts, so its input
        // never runs empty: only the cap and the EOF send a batch.
        run(rx, &inst, &cfg, &gate);

        let msgs: Vec<MergeMsg> = merge_rx.try_iter().collect();
        assert!(matches!(msgs.last(), Some(MergeMsg::Done(_))));
        let batches: Vec<&Vec<u8>> = msgs
            .iter()
            .filter_map(|m| match m {
                MergeMsg::Records(bytes) => Some(bytes),
                MergeMsg::Done(_) => None,
            })
            .collect();
        assert_eq!(batches.len(), msgs.len() - 1, "one Done, last");
        assert!(
            batches.len() < 200,
            "{} messages for 200 lines",
            batches.len()
        );
        assert!(batches.len() > 1, "the output spans more than one cap");
        let mut admits = Vec::new();
        for (k, batch) in batches.iter().enumerate() {
            if k + 1 < batches.len() {
                assert!(batch.len() >= BATCH_BYTES, "batch {k} left before the cap");
            }
            // A line's ack is its last record, so the batch as it stood
            // before its last line ends at the second-to-last admit.
            let recs = records(batch);
            let ends: Vec<usize> = recs
                .iter()
                .filter(|r| r.0 == "admit")
                .map(|r| r.2)
                .collect();
            let before_last_line = ends.len().checked_sub(2).map_or(0, |i| ends[i]);
            assert!(before_last_line < BATCH_BYTES, "batch {k} held a full cap");
            admits.extend(recs.iter().filter(|r| r.0 == "admit").map(|r| r.1));
        }
        let want: Vec<Option<f64>> = (1..=200).map(|n| Some(n as f64)).collect();
        assert_eq!(admits, want, "200 admits in line order");
    }

    #[test]
    fn a_line_of_another_connection_sends_the_batch() {
        let (inst, cfg, gate) = (platform(), ServerConfig::default(), Gate::new());
        let (one_tx, one_rx) = mpsc::channel();
        let (two_tx, two_rx) = mpsc::channel();
        let (tx, rx) = mpsc::channel();
        tx.send(open(one_tx)).expect("queued");
        tx.send(ShardMsg::Open {
            conn: 2,
            out: two_tx,
            counters: Arc::default(),
        })
        .expect("queued");
        // Connection 1's lines alternate with connection 2's, all queued
        // before the worker starts: each switch must send what the other
        // connection has pending, so no line waits for the EOF.
        for i in 0..3 {
            tx.send(job(i)).expect("queued");
            let ShardMsg::Line { tenant, line, .. } = job(i) else {
                unreachable!("job builds a line");
            };
            tx.send(ShardMsg::Line {
                conn: 2,
                tenant,
                line,
            })
            .expect("queued");
        }
        tx.send(ShardMsg::Eof { conn: 1 }).expect("queued");
        tx.send(ShardMsg::Eof { conn: 2 }).expect("queued");
        drop(tx);
        run(rx, &inst, &cfg, &gate);
        for out in [one_rx, two_rx] {
            let acks: Vec<Vec<Option<f64>>> = out
                .try_iter()
                .filter_map(|m| match m {
                    MergeMsg::Records(bytes) => Some(records(&bytes)),
                    MergeMsg::Done(_) => None,
                })
                .map(|recs| {
                    let admits = recs.into_iter().filter(|r| r.0 == "admit");
                    admits.map(|r| r.1).collect()
                })
                .filter(|admits: &Vec<_>| !admits.is_empty())
                .collect();
            let one_each = vec![vec![Some(1.0)], vec![Some(2.0)], vec![Some(3.0)]];
            assert_eq!(acks, one_each, "one message per line");
        }
    }

    #[test]
    fn each_line_leaves_alone_when_the_queue_runs_empty() {
        let (inst, cfg, gate) = (platform(), ServerConfig::default(), Gate::new());
        let (merge_tx, merge_rx) = mpsc::channel();
        let (tx, rx) = mpsc::channel();
        std::thread::scope(|s| {
            let worker = s.spawn(|| run(rx, &inst, &cfg, &gate));
            tx.send(open(merge_tx)).expect("worker alive");
            for i in 0..3 {
                // The line is the worker's whole input: its records must
                // reach the merger before any further line is sent.
                tx.send(job(i)).expect("worker alive");
                let msg = merge_rx
                    .recv_timeout(Duration::from_secs(30))
                    .expect("the line's records were sent");
                let MergeMsg::Records(bytes) = msg else {
                    panic!("records expected before Done");
                };
                let acks: Vec<_> = records(&bytes)
                    .into_iter()
                    .filter(|r| r.0 == "admit")
                    .map(|r| r.1)
                    .collect();
                assert_eq!(acks, vec![Some(i as f64 + 1.0)]);
            }
            tx.send(ShardMsg::Eof { conn: 1 }).expect("worker alive");
            drop(tx);
            worker.join().expect("worker thread");
        });
        let rest: Vec<MergeMsg> = merge_rx.try_iter().collect();
        assert!(matches!(rest.last(), Some(MergeMsg::Done(_))));
    }
}
