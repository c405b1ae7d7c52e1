//! The per-connection merger: owns the connection's output half, drains
//! the connection's merge channel into it, interleaves wall-clock
//! `server-heartbeat` records, and closes the stream with one
//! `server-summary` (see the module docs in [`super`]).
//!
//! Records arrive as whole pre-framed NDJSON lines, so interleaving
//! streams from different shards can reorder lines *between* tenants but
//! never corrupt or reorder lines *within* one tenant — each tenant's
//! records come from one shard, whose sends arrive in order.

use super::{ConnCounters, MergeMsg, ServerConfig, ServerSummary};
use crate::cli::CliError;
use crate::ndjson::ObjWriter;
use std::io::Write;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::time::Instant;

fn write_all(out: &mut impl Write, bytes: &[u8]) -> Result<(), CliError> {
    out.write_all(bytes)
        .map_err(|e| CliError::Io(format!("output stream: {e}")))
}

fn write_record(out: &mut impl Write, record: &str) -> Result<(), CliError> {
    writeln!(out, "{record}").map_err(|e| CliError::Io(format!("output stream: {e}")))
}

/// Emits `server-hello`, then merges until the channel disconnects —
/// every shard and the router finished the connection and dropped its
/// sender, or died without finishing (a panic), which must still close
/// the connection out; emits `server-summary` and returns the
/// connection's totals.
pub(crate) fn run(
    mut out: impl Write,
    rx: mpsc::Receiver<MergeMsg>,
    counters: Arc<ConnCounters>,
    cfg: &ServerConfig,
) -> Result<ServerSummary, CliError> {
    let mut w = ObjWriter::typed("server-hello");
    w.num_field("shards", cfg.shards as f64)
        .str_field("policy", cfg.serve.policy.name());
    if let Some(cap) = cfg.serve.max_pending {
        w.num_field("max_pending", cap as f64);
    }
    if let Some(cap) = cfg.max_queue {
        w.num_field("max_queue", cap as f64);
    }
    if let Some(cap) = cfg.global_pending {
        w.num_field("global_pending", cap as f64);
    }
    write_record(&mut out, w.close())?;
    out.flush()
        .map_err(|e| CliError::Io(format!("output stream: {e}")))?;

    let start = Instant::now();
    let mut seq = 0u64;
    let mut last_wall_ms = 0u64;
    let mut next_beat_ms = cfg.heartbeat_ms;
    let mut summary = ServerSummary::default();
    loop {
        // Drain whatever is ready before flushing once for the pass.
        let mut idle = true;
        let mut closed = false;
        loop {
            match rx.try_recv() {
                Ok(MergeMsg::Records(bytes)) => write_all(&mut out, &bytes)?,
                Ok(MergeMsg::Done(share)) => summary.add(&share),
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => {
                    closed = true;
                    break;
                }
            }
            idle = false;
        }
        if !idle {
            out.flush()
                .map_err(|e| CliError::Io(format!("output stream: {e}")))?;
        }
        if closed {
            break;
        }
        if cfg.heartbeat_ms > 0 {
            let elapsed_ms = start.elapsed().as_millis() as u64;
            if elapsed_ms >= next_beat_ms {
                seq += 1;
                // Strictly monotone even when a slow drain makes several
                // beats due at once.
                let wall_ms = elapsed_ms.max(last_wall_ms + 1);
                last_wall_ms = wall_ms;
                next_beat_ms = elapsed_ms + cfg.heartbeat_ms;
                w.reset("server-heartbeat");
                w.num_field("seq", seq as f64)
                    .num_field("wall_ms", wall_ms as f64)
                    .num_field("lines", counters.lines.load(Ordering::Relaxed) as f64)
                    .num_field("admitted", counters.admitted.load(Ordering::Relaxed) as f64)
                    .num_field("shed", counters.shed.load(Ordering::Relaxed) as f64)
                    .num_field("rejected", counters.rejected.load(Ordering::Relaxed) as f64)
                    .num_field(
                        "completed",
                        counters.completed.load(Ordering::Relaxed) as f64,
                    )
                    .num_field("tenants", counters.lanes.load(Ordering::Relaxed) as f64);
                write_record(&mut out, w.close())?;
                out.flush()
                    .map_err(|e| CliError::Io(format!("output stream: {e}")))?;
            }
        }
        if idle {
            // Nothing ready on the channel: yield instead of spinning.
            std::thread::sleep(std::time::Duration::from_micros(500));
        }
    }

    w.reset("server-summary");
    w.num_field("lines", summary.lines as f64)
        .num_field("admitted", summary.admitted as f64)
        .num_field("shed", summary.shed as f64)
        .num_field("rejected", summary.rejected as f64)
        .num_field("completed", summary.completed as f64)
        .num_field("tenants", summary.tenants as f64);
    write_record(&mut out, w.close())?;
    out.flush()
        .map_err(|e| CliError::Io(format!("output stream: {e}")))?;
    Ok(summary)
}
