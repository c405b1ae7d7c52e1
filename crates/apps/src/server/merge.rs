//! The per-connection merger: owns the connection's output half, drains
//! the connection's merge channel into it, interleaves wall-clock
//! `server-heartbeat` records, and closes the stream with one
//! `server-summary` (see the module docs in [`super`]).
//!
//! It sleeps on the channel until a message arrives or a heartbeat is
//! due, then writes everything ready and flushes once: an ack on a quiet
//! connection leaves as soon as its shard sends it, and on a busy one the
//! records queued meanwhile share one socket write.
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
use std::time::{Duration, Instant};

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
        // Sleep until a message arrives, or until the next beat is due.
        let wait = match cfg.heartbeat_ms {
            0 => Duration::MAX,
            _ => Duration::from_millis(next_beat_ms).saturating_sub(start.elapsed()),
        };
        let first = match rx.recv_timeout(wait) {
            Ok(msg) => Some(msg),
            Err(mpsc::RecvTimeoutError::Timeout) => None,
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        };
        let mut closed = false;
        if let Some(mut msg) = first {
            // Write it and whatever else is ready, then flush once.
            loop {
                match msg {
                    MergeMsg::Records(bytes) => write_all(&mut out, &bytes)?,
                    MergeMsg::Done(share) => summary.add(&share),
                }
                match rx.try_recv() {
                    Ok(next) => msg = next,
                    Err(mpsc::TryRecvError::Empty) => break,
                    Err(mpsc::TryRecvError::Disconnected) => {
                        closed = true;
                        break;
                    }
                }
            }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ndjson::parse_object;
    use std::time::Duration;

    /// Keeps what is written and counts flushes.
    #[derive(Default)]
    struct Counting {
        bytes: Vec<u8>,
        flushes: usize,
    }

    impl Write for Counting {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            self.flushes += 1;
            Ok(())
        }
    }

    /// Sends what was written to the test at every flush.
    struct Forward {
        buf: Vec<u8>,
        tx: mpsc::Sender<Vec<u8>>,
    }

    impl Write for Forward {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.buf.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            let _ = self.tx.send(std::mem::take(&mut self.buf));
            Ok(())
        }
    }

    fn parse_all(text: &str) -> Vec<Vec<(String, crate::ndjson::Value)>> {
        text.lines()
            .map(|l| parse_object(l).expect("records parse"))
            .collect()
    }

    fn field(rec: &[(String, crate::ndjson::Value)], key: &str) -> f64 {
        rec.iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_num())
            .unwrap_or_else(|| panic!("no numeric {key}"))
    }

    fn kind(rec: &[(String, crate::ndjson::Value)]) -> &str {
        rec.iter()
            .find(|(k, _)| k == "type")
            .and_then(|(_, v)| v.as_str())
            .expect("typed")
    }

    #[test]
    fn a_queued_backlog_is_written_with_one_flush() {
        let (tx, rx) = mpsc::channel();
        for i in 0..50 {
            let rec = format!("{{\"type\":\"r\",\"i\":{i}}}\n");
            tx.send(MergeMsg::Records(rec.into_bytes()))
                .expect("queued");
        }
        let share = ServerSummary {
            lines: 50,
            ..ServerSummary::default()
        };
        tx.send(MergeMsg::Done(share)).expect("queued");
        drop(tx);
        let cfg = ServerConfig {
            heartbeat_ms: 0,
            ..ServerConfig::default()
        };
        let mut out = Counting::default();
        let summary = run(&mut out, rx, Arc::default(), &cfg).expect("merged");
        assert_eq!(summary, share);
        assert_eq!(out.flushes, 3, "hello, the batch, the summary");
        let recs = parse_all(std::str::from_utf8(&out.bytes).expect("UTF-8"));
        assert_eq!(recs.len(), 52);
        assert_eq!(kind(&recs[0]), "server-hello");
        for (i, rec) in recs[1..51].iter().enumerate() {
            assert_eq!(field(rec, "i"), i as f64, "records in order");
        }
        assert_eq!(kind(&recs[51]), "server-summary");
        assert_eq!(field(&recs[51], "lines"), 50.0);
    }

    #[test]
    fn heartbeats_come_while_the_channel_is_quiet() {
        let cfg = ServerConfig {
            heartbeat_ms: 20,
            ..ServerConfig::default()
        };
        let (tx, rx) = mpsc::channel::<MergeMsg>();
        let (out_tx, out_rx) = mpsc::channel();
        let out = Forward {
            buf: Vec::new(),
            tx: out_tx,
        };
        let mut text = String::new();
        std::thread::scope(|s| {
            let merger = s.spawn(|| run(out, rx, Arc::default(), &cfg));
            // Nothing is ever sent: hold the channel open until three
            // beats were written, then close it.
            while text.matches("\"server-heartbeat\"").count() < 3 {
                let chunk = out_rx
                    .recv_timeout(Duration::from_secs(30))
                    .expect("the merger beats on a quiet channel");
                text.push_str(std::str::from_utf8(&chunk).expect("UTF-8"));
            }
            drop(tx);
            merger.join().expect("merger thread").expect("merged");
        });
        for chunk in out_rx.try_iter() {
            text.push_str(std::str::from_utf8(&chunk).expect("UTF-8"));
        }
        let recs = parse_all(&text);
        assert_eq!(kind(&recs[0]), "server-hello");
        assert_eq!(kind(recs.last().expect("records")), "server-summary");
        let beats: Vec<_> = recs
            .iter()
            .filter(|r| kind(r) == "server-heartbeat")
            .map(|r| (field(r, "seq"), field(r, "wall_ms")))
            .collect();
        assert!(beats.len() >= 3, "{beats:?}");
        assert_eq!(beats.len(), recs.len() - 2, "only beats in between");
        for pair in beats.windows(2) {
            assert!(pair[1].0 > pair[0].0 && pair[1].1 > pair[0].1, "{beats:?}");
        }
    }
}
