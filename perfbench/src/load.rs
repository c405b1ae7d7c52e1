//! The open-loop generator: one connection, one writer (the calling
//! thread) and one reader thread. The send schedule is fixed before the
//! run — line `i` is due `i / rate` seconds after the start — and every
//! acknowledgement is timed from its line's *due* time, so a stall in the
//! server (or in the writer) shows in the latency of every line due while
//! it lasted: there is no coordinated omission. How late the writer ran
//! is recorded per line.

use crate::stats;
use mmsec_apps::ndjson::{parse_object_into, ObjBuf, Value};
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

/// What a line is, and so which acknowledgement it must get.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LineKind {
    /// A tenant's opening `spec` record: acknowledged by `spec-ok`.
    Spec,
    /// A job submission: acknowledged by `admit`.
    Job,
    /// A platform mutation: acknowledged by `platform-ok`.
    Platform,
    /// A deliberately malformed submission: acknowledged by a `reject`
    /// with code `bad-type`.
    Planted,
}

/// A fixed script of NDJSON lines.
#[derive(Clone, Debug, Default)]
pub struct Script {
    /// Newline-terminated lines, in sending order.
    pub lines: Vec<String>,
    pub kind: Vec<LineKind>,
    /// Tenant index of each line.
    pub tenant: Vec<usize>,
    /// Tenant names by index.
    pub tenants: Vec<String>,
}

impl Script {
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// Total bytes of the script.
    pub fn bytes(&self) -> u64 {
        self.lines.iter().map(|l| l.len() as u64).sum()
    }

    /// The lines of tenant `t` that reach its lane (everything but its
    /// `spec` record), in order: the lane numbers them from 1.
    pub fn lane_lines(&self, t: usize) -> impl Iterator<Item = usize> + '_ {
        (0..self.len()).filter(move |&i| self.tenant[i] == t && self.kind[i] != LineKind::Spec)
    }
}

/// How a line was acknowledged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ack {
    None,
    Admit,
    SpecOk,
    PlatformOk,
    Shed,
    /// A reject; `true` when its code is `bad-type`.
    Reject(bool),
}

/// One tenant's records.
#[derive(Clone, Debug, Default)]
pub struct TenantTally {
    /// Job ids from `admit` records.
    pub admitted: Vec<u64>,
    /// Job ids from `completion` records.
    pub completed: Vec<u64>,
    /// `max_stretch` of the tenant's final `summary` record.
    pub summary_max_stretch: Option<f64>,
}

/// Everything one open-loop run observed. Times are nanoseconds since
/// the schedule's start.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    pub due_ns: Vec<u64>,
    pub sent_ns: Vec<u64>,
    /// `u64::MAX` for a line never acknowledged.
    pub ack_ns: Vec<u64>,
    pub ack: Vec<Ack>,
    pub tenants: Vec<TenantTally>,
    /// `(lines, admitted, shed, rejected, completed)` of the
    /// `server-summary` record.
    pub server_summary: Option<[u64; 5]>,
    pub bytes_out: u64,
    /// `error` records, and records that match no line sent.
    pub stray: u64,
}

impl Outcome {
    /// Acknowledgement latencies in milliseconds, from due time.
    pub fn ack_ms(&self) -> Vec<f64> {
        self.ack_ns
            .iter()
            .zip(&self.due_ns)
            .filter(|(a, _)| **a != u64::MAX)
            .map(|(a, d)| a.saturating_sub(*d) as f64 / 1e6)
            .collect()
    }

    /// How late the writer sent each line, in milliseconds.
    pub fn late_ms(&self) -> Vec<f64> {
        self.sent_ns
            .iter()
            .zip(&self.due_ns)
            .map(|(s, d)| s.saturating_sub(*d) as f64 / 1e6)
            .collect()
    }

    pub fn acked(&self) -> usize {
        self.ack.iter().filter(|a| **a != Ack::None).count()
    }

    /// Unacknowledged lines (sent minus acknowledged) at `points` evenly
    /// spaced instants over the sending window, and the maximum over the
    /// whole run.
    pub fn backlog(&self, points: usize) -> (Vec<u64>, u64) {
        let mut acks: Vec<u64> = self
            .ack_ns
            .iter()
            .copied()
            .filter(|a| *a != u64::MAX)
            .collect();
        acks.sort_unstable();
        let mut sends = self.sent_ns.clone();
        sends.sort_unstable();
        let at = |t: u64| {
            let s = sends.partition_point(|x| *x <= t) as u64;
            let a = acks.partition_point(|x| *x <= t) as u64;
            s.saturating_sub(a)
        };
        let end = self.due_ns.last().copied().unwrap_or(0);
        let samples = (1..=points)
            .map(|k| at(end * k as u64 / points as u64))
            .collect();
        let max = sends.iter().map(|t| at(*t)).max().unwrap_or(0);
        (samples, max)
    }
}

/// Maps a lane's `(tenant, line)` numbering back to script positions.
struct LaneIndex<'a> {
    by_name: HashMap<&'a str, usize>,
    lane: Vec<Vec<usize>>,
    spec: Vec<Option<usize>>,
}

impl<'a> LaneIndex<'a> {
    fn new(script: &'a Script) -> Self {
        let mut lane = vec![Vec::new(); script.tenants.len()];
        let mut spec = vec![None; script.tenants.len()];
        for i in 0..script.len() {
            let t = script.tenant[i];
            match script.kind[i] {
                LineKind::Spec => spec[t] = Some(i),
                _ => lane[t].push(i),
            }
        }
        LaneIndex {
            by_name: script
                .tenants
                .iter()
                .enumerate()
                .map(|(i, n)| (n.as_str(), i))
                .collect(),
            lane,
            spec,
        }
    }
}

/// Reads the server's record stream to EOF, timing each acknowledgement.
fn read_records(
    stream: UnixStream,
    script: &Script,
    start: Instant,
) -> io::Result<(Vec<u64>, Vec<Ack>, Outcome)> {
    let index = LaneIndex::new(script);
    let n = script.len();
    let mut ack_ns = vec![u64::MAX; n];
    let mut ack = vec![Ack::None; n];
    let mut out = Outcome {
        tenants: vec![TenantTally::default(); script.tenants.len()],
        ..Outcome::default()
    };
    let mut input = BufReader::with_capacity(1 << 16, stream);
    let mut line = String::new();
    let mut fields = ObjBuf::new();
    loop {
        line.clear();
        if input.read_line(&mut line)? == 0 {
            break;
        }
        let now = start.elapsed().as_nanos() as u64;
        out.bytes_out += line.len() as u64;
        if parse_object_into(line.trim_end(), &mut fields).is_err() {
            out.stray += 1;
            continue;
        }
        let (mut kind, mut tenant, mut lane_line, mut job, mut code, mut stretch) =
            ("", None, None, None, "", None);
        for (key, value) in fields.fields() {
            match (key.as_str(), value) {
                ("type", Value::Str(s)) => kind = s.as_str(),
                ("tenant", Value::Str(s)) => tenant = index.by_name.get(s.as_str()).copied(),
                ("line", Value::Num(x)) => lane_line = Some(*x as usize),
                ("job", Value::Num(x)) => job = Some(*x as u64),
                ("code", Value::Str(s)) => code = s.as_str(),
                ("max_stretch", Value::Num(x)) => stretch = Some(*x),
                _ => {}
            }
        }
        let acked = match kind {
            "admit" => Some(Ack::Admit),
            "platform-ok" => Some(Ack::PlatformOk),
            "shed" => Some(Ack::Shed),
            "reject" => Some(Ack::Reject(code == "bad-type")),
            "spec-ok" => Some(Ack::SpecOk),
            _ => None,
        };
        if let Some(a) = acked {
            let idx = match (tenant, lane_line, a) {
                (Some(t), _, Ack::SpecOk) => index.spec[t],
                (Some(t), Some(l), _) => {
                    l.checked_sub(1).and_then(|l| index.lane[t].get(l).copied())
                }
                _ => None,
            };
            match idx {
                Some(i) if ack[i] == Ack::None => {
                    ack[i] = a;
                    ack_ns[i] = now;
                }
                _ => out.stray += 1,
            }
            if let (Ack::Admit, Some(t), Some(j)) = (a, tenant, job) {
                out.tenants[t].admitted.push(j);
            }
            continue;
        }
        match (kind, tenant) {
            ("completion", Some(t)) => out.tenants[t].completed.push(job.unwrap_or(u64::MAX)),
            ("summary", Some(t)) => out.tenants[t].summary_max_stretch = stretch,
            ("server-summary", _) => {
                let num = |k: &str| {
                    fields
                        .fields()
                        .iter()
                        .find(|(key, _)| key == k)
                        .and_then(|(_, v)| v.as_num())
                        .unwrap_or(f64::NAN) as u64
                };
                out.server_summary = Some([
                    num("lines"),
                    num("admitted"),
                    num("shed"),
                    num("rejected"),
                    num("completed"),
                ]);
            }
            ("error", _) | ("completion", None) | ("summary", None) => out.stray += 1,
            _ => {}
        }
    }
    Ok((ack_ns, ack, out))
}

/// Sends `script` over `stream` at `rate` lines per second, open loop,
/// and reads every record back until the server closes the stream.
pub fn run(stream: UnixStream, script: &Script, rate: f64) -> io::Result<Outcome> {
    let n = script.len();
    let period_ns = 1e9 / rate;
    let due_ns: Vec<u64> = (0..n).map(|i| (i as f64 * period_ns) as u64).collect();
    let reader = stream.try_clone()?;
    let start = Instant::now() + Duration::from_millis(1);
    std::thread::scope(|s| {
        let rx = s.spawn(|| read_records(reader, script, start));
        let mut sent_ns = vec![0u64; n];
        let written = (|| {
            let mut w = BufWriter::with_capacity(1 << 16, &stream);
            for i in 0..n {
                let due = start + Duration::from_nanos(due_ns[i]);
                let now = Instant::now();
                if now < due {
                    // Caught up: everything due so far goes out before the
                    // writer sleeps until the next line is due.
                    w.flush()?;
                    std::thread::sleep(due - now);
                }
                sent_ns[i] = start.elapsed().as_nanos() as u64;
                w.write_all(script.lines[i].as_bytes())?;
            }
            w.flush()
        })();
        // Close the write half even on error, so the reader sees EOF.
        let _ = stream.shutdown(std::net::Shutdown::Write);
        let read = rx.join().expect("reader thread panicked");
        written?;
        let (ack_ns, ack, out) = read?;
        Ok(Outcome {
            due_ns,
            sent_ns,
            ack_ns,
            ack,
            ..out
        })
    })
}

/// Acknowledgement latency quantiles `(p50, p99)` in milliseconds,
/// taken per window of `window_ns` of due time and reported as the
/// median over the windows: a transient stall of the host moves one
/// window, not the figure.
pub fn windowed_ack_ms(out: &Outcome, window_ns: u64) -> (f64, f64) {
    let mut windows: Vec<Vec<f64>> = Vec::new();
    for (a, d) in out.ack_ns.iter().zip(&out.due_ns) {
        if *a == u64::MAX {
            continue;
        }
        let w = (*d / window_ns.max(1)) as usize;
        if windows.len() <= w {
            windows.resize(w + 1, Vec::new());
        }
        windows[w].push(a.saturating_sub(*d) as f64 / 1e6);
    }
    let (mut p50, mut p99) = (Vec::new(), Vec::new());
    for w in windows.iter_mut().filter(|w| !w.is_empty()) {
        w.sort_by(f64::total_cmp);
        p50.push(stats::quantile(w, 0.5));
        p99.push(stats::quantile(w, 0.99));
    }
    (stats::median(&p50), stats::median(&p99))
}

/// Per-phase figures of an outcome, for reporting.
pub struct Summary {
    pub ack_p99_ms: f64,
    pub late_p50_ms: f64,
    pub late_p99_ms: f64,
    pub backlog_max: u64,
    pub backlog_grew: bool,
}

/// Summarizes an outcome sent at `rate` lines per second.
pub fn summarize(out: &Outcome, rate: f64) -> Summary {
    let mut ack = out.ack_ms();
    ack.sort_by(f64::total_cmp);
    let mut late = out.late_ms();
    late.sort_by(f64::total_cmp);
    let (samples, backlog_max) = out.backlog(8);
    Summary {
        ack_p99_ms: stats::quantile(&ack, 0.99),
        late_p50_ms: stats::quantile(&late, 0.5),
        late_p99_ms: stats::quantile(&late, 0.99),
        backlog_max,
        // Growth only counts once it is worth half the latency limit.
        backlog_grew: stats::backlog_grows(&samples, 32.0 + rate * 0.025),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn script(n: usize) -> Script {
        Script {
            lines: (0..n)
                .map(|i| format!("{{\"tenant\":\"a\",\"n\":{i}}}\n"))
                .collect(),
            kind: vec![LineKind::Job; n],
            tenant: vec![0; n],
            tenants: vec!["a".into()],
        }
    }

    /// An in-process server that admits every line, but stalls for
    /// `stall` once it has read line `stall_at` (0-based).
    fn stub(stream: UnixStream, stall_at: usize, stall: Duration) {
        let mut out = BufWriter::new(stream.try_clone().unwrap());
        let input = BufReader::new(stream);
        for (i, line) in input.lines().enumerate() {
            line.unwrap();
            if i == stall_at {
                out.flush().unwrap();
                std::thread::sleep(stall);
            }
            writeln!(
                out,
                "{{\"type\":\"admit\",\"tenant\":\"a\",\"line\":{},\"job\":{i}}}",
                i + 1
            )
            .unwrap();
            out.flush().unwrap();
        }
        writeln!(out, "{{\"type\":\"server-summary\",\"lines\":1}}").unwrap();
        out.flush().unwrap();
    }

    #[test]
    fn a_server_stall_shows_in_every_line_due_during_it() {
        let (client, server) = UnixStream::pair().unwrap();
        let (n, rate, stall_at) = (400, 2000.0, 100);
        let stall = Duration::from_millis(120);
        let srv = std::thread::spawn(move || stub(server, stall_at, stall));
        let out = run(client, &script(n), rate).unwrap();
        srv.join().unwrap();
        assert_eq!(out.acked(), n);
        assert_eq!(out.stray, 0);
        assert!(out.server_summary.is_some());
        // The stub resumes no earlier than `stall` after line `stall_at`
        // was due; every line due before then waited for it.
        let resume = out.due_ns[stall_at] + stall.as_nanos() as u64;
        let mut covered = 0;
        for i in stall_at + 1..n {
            if out.due_ns[i] >= resume {
                break;
            }
            let latency = out.ack_ns[i] - out.due_ns[i];
            assert!(
                latency + 1 >= resume - out.due_ns[i],
                "line {i}: latency {latency} ns hides the stall"
            );
            covered += 1;
        }
        assert!(covered >= 200, "the stall spans ~240 lines at 2000/s");
        // The stall does not slow the open-loop writer down.
        let late = out.late_ms();
        let mut sorted = late.clone();
        sorted.sort_by(f64::total_cmp);
        assert!(stats::quantile(&sorted, 0.5) < 20.0);
        let s = summarize(&out, rate);
        assert!(s.ack_p99_ms >= 100.0);
        assert!(s.backlog_max >= 200);
    }

    #[test]
    fn windowed_quantiles_ignore_one_bad_window() {
        // Three windows of 100 lines; the middle one stalls.
        let due_ns: Vec<u64> = (0..300).map(|i| i * 10).collect();
        let ack_ns = due_ns
            .iter()
            .map(|d| {
                d + if (1000..2000).contains(d) {
                    50_000_000
                } else {
                    1_000_000
                }
            })
            .collect();
        let out = Outcome {
            due_ns,
            ack_ns,
            ..Outcome::default()
        };
        assert_eq!(windowed_ack_ms(&out, 1000), (1.0, 1.0));
    }

    #[test]
    fn backlog_counts_unacknowledged_lines() {
        let out = Outcome {
            due_ns: vec![0, 10, 20, 30],
            sent_ns: vec![0, 10, 20, 30],
            ack_ns: vec![5, 40, u64::MAX, 31],
            ack: vec![Ack::Admit, Ack::Admit, Ack::None, Ack::Admit],
            ..Outcome::default()
        };
        let (samples, max) = out.backlog(2);
        assert_eq!(samples, vec![1, 3]);
        assert_eq!(max, 3);
        assert_eq!(out.acked(), 3);
    }
}
