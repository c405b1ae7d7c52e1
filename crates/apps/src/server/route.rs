//! The per-connection reader: extracts the tenant key from each NDJSON
//! line, applies router-level overload shedding, and forwards raw lines
//! to the owning shard (see the module docs in [`super`]).

use super::{shard_of, ConnId, Gate, MergeMsg, ServerConfig, ServerSummary, ShardMsg, ShardTx};
use crate::cli::CliError;
use crate::ndjson::{parse_object_into, ObjBuf, ObjWriter};
use std::io::BufRead;
use std::sync::mpsc;

/// The tenant every untagged (or unparseable) line belongs to.
pub(crate) const DEFAULT_TENANT: &str = "default";

/// What the router learned from one line: where it goes and whether the
/// admission gates apply to it.
struct RouteInfo {
    tenant: String,
    /// True for job submissions (the only line kind the global gate and
    /// shard-queue shedding apply to — control records must go through,
    /// and a malformed line must still reach its lane to be rejected
    /// with the right per-tenant line number).
    gated: bool,
}

/// Extracts the routing key. A line that does not parse routes to the
/// default tenant — its lane rejects it with a per-tenant line number,
/// exactly as a single-session serve would.
fn classify(line: &str, fields: &mut ObjBuf) -> RouteInfo {
    if parse_object_into(line, fields).is_err() {
        return RouteInfo {
            tenant: DEFAULT_TENANT.to_string(),
            gated: false,
        };
    }
    let mut tenant: Option<&str> = None;
    let mut kind: Option<&str> = None;
    for (key, value) in fields.fields() {
        match key.as_str() {
            "tenant" => tenant = value.as_str(),
            "type" => kind = value.as_str(),
            _ => {}
        }
    }
    RouteInfo {
        tenant: tenant.unwrap_or(DEFAULT_TENANT).to_string(),
        gated: !matches!(kind, Some("platform") | Some("spec")),
    }
}

/// Emits a router-level shed record straight to the merger (these lines
/// never reach a shard, so they carry no per-tenant line number).
fn shed_record(
    w: &mut ObjWriter,
    out: &mpsc::Sender<MergeMsg>,
    tenant: &str,
    reason: &str,
    shard: Option<usize>,
) {
    w.reset("shed");
    w.str_field("tenant", tenant).str_field("reason", reason);
    if let Some(s) = shard {
        w.num_field("shard", s as f64);
    }
    let mut bytes = w.close().as_bytes().to_vec();
    bytes.push(b'\n');
    let _ = out.send(MergeMsg::Records(bytes));
}

/// Reads the connection's input to EOF, routing every line; then tells
/// every shard the connection ended, reports the read totals to the
/// merger, and drops the router's merge sender.
pub(crate) fn run(
    mut input: impl BufRead,
    conn: ConnId,
    shard_txs: &[ShardTx],
    merge_tx: mpsc::Sender<MergeMsg>,
    cfg: &ServerConfig,
    gate: &Gate,
) -> Result<(), CliError> {
    let mut line = String::new();
    let mut fields = ObjBuf::new();
    let mut w = ObjWriter::typed("shed");
    let mut lines = 0usize;
    let mut shed = 0usize;
    let result = loop {
        line.clear();
        let n = match input.read_line(&mut line) {
            Ok(n) => n,
            Err(e) => break Err(CliError::Io(format!("input stream: {e}"))),
        };
        if n == 0 {
            break Ok(());
        }
        if line.trim().is_empty() {
            continue;
        }
        lines += 1;
        let info = classify(line.trim_end(), &mut fields);
        if info.gated && cfg.global_pending.is_some_and(|cap| gate.over(cap)) {
            shed += 1;
            shed_record(&mut w, &merge_tx, &info.tenant, "global-overload", None);
            continue;
        }
        let shard = shard_of(&info.tenant, shard_txs.len());
        let msg = ShardMsg::Line {
            conn,
            tenant: info.tenant,
            line: line.trim_end().to_string(),
        };
        if info.gated {
            if let Err(ShardMsg::Line { tenant, .. }) = shard_txs[shard].try_line(msg) {
                shed += 1;
                shed_record(&mut w, &merge_tx, &tenant, "shard-overloaded", Some(shard));
            }
        } else {
            // Control records (platform mutations, specs) must not be
            // dropped by a transiently full queue.
            shard_txs[shard].send(msg);
        }
    };
    // Even on a read error, close out the connection so the lanes drain
    // and the merger can finish the stream.
    for tx in shard_txs {
        tx.send(ShardMsg::Eof { conn });
    }
    let _ = merge_tx.send(MergeMsg::Done(ServerSummary {
        lines,
        shed,
        ..ServerSummary::default()
    }));
    result
}
