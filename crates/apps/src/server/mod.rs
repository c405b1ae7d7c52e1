//! Sharded multi-session serving: the subsystem behind
//! `mmsec serve --shards N [--listen ...]` (see `docs/serving.md`).
//!
//! One connection's traffic flows through four roles, each its own
//! thread:
//!
//! ```text
//!              ┌────────► shard worker 0 ──┐
//!  reader ─────┼────────► shard worker 1 ──┼────► merger ───► client
//!  (router)    └────────► shard worker N-1 ┘  one merge channel
//! ```
//!
//! * The **reader** (router) owns the connection's input half: it parses
//!   each NDJSON line just enough to extract the `tenant` key (default
//!   `"default"`), applies the *global* admission gate, and forwards the
//!   raw line to the shard `fnv1a(tenant) % shards` — so one tenant's
//!   lines always land on one shard, in arrival order.
//! * Each **shard worker** owns a map of per-tenant `Lane`s — full
//!   single-session serving loops with a `"tenant"` tag on every record
//!   — created lazily on a tenant's first line (from a `{"type":"spec"}`
//!   record, or the server's default platform). Workers never share
//!   sessions and sessions never cross threads. A lane that fails (an
//!   engine error, or a panic inside the lane) is torn down alone: its
//!   tenant gets one `error` record, its later lines `lane-failed`
//!   rejects, and the worker keeps serving the shard's other tenants.
//!   A worker batches a connection's records while its input queue holds
//!   more of that connection's lines, and sends them when the queue runs
//!   empty or the next line belongs to another connection.
//! * The **merger** owns the output half: it blocks on the connection's
//!   one merge channel, writes what arrives, interleaves
//!   `server-heartbeat` records (strictly monotone `seq`/`wall_ms`), and
//!   closes the stream with one `server-summary`. Every shard and the
//!   router send on a clone of the channel's sender and drop it once done
//!   with the connection; the channel disconnecting is the end of the
//!   stream.
//!
//! Backpressure sheds rather than blocks at three levels: per-lane
//! `--max-pending` (inside the lane, deterministic), per-shard
//! `--max-queue` (bounded input queue, shed by the router with reason
//! `shard-overloaded`), and the global `--global-pending` unfinished-jobs
//! gate (shed by the router with reason `global-overload`).
//!
//! The same worker/merger fabric serves three frontends: in-memory
//! readers/writers ([`run_sharded`], used by tests), the process's
//! stdin/stdout (sharded stdin mode), and socket connections accepted by
//! [`run_listener`] (Unix or TCP), each connection with its own
//! router/merger pair over the shared worker pool.

mod merge;
mod route;
mod worker;

use crate::cli::CliError;
use crate::serve::{validate_config, ServeConfig, ServeSummary};
use mmsec_platform::Instance;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;

/// Sharded-server knobs on top of the per-lane [`ServeConfig`].
pub struct ServerConfig {
    /// Per-lane serving knobs (policy, seed, heartbeat cadence,
    /// `--max-pending`, `--stats-every`).
    pub serve: ServeConfig,
    /// Worker threads; each owns the lanes of the tenants hashed to it.
    pub shards: usize,
    /// Bounded per-shard input queues: when a shard's queue is full the
    /// router sheds the line (`shard-overloaded`) instead of blocking
    /// the connection. `None` = unbounded (never sheds at this level).
    pub max_queue: Option<usize>,
    /// Global admission gate: when the total number of unfinished jobs
    /// across every lane reaches this, job submissions are shed at the
    /// router (`global-overload`) before they reach a shard. `None` =
    /// ungated.
    pub global_pending: Option<usize>,
    /// Wall-clock cadence of the merger's `server-heartbeat` records, in
    /// milliseconds. `0` disables them.
    pub heartbeat_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            serve: ServeConfig::default(),
            shards: 1,
            max_queue: None,
            global_pending: None,
            heartbeat_ms: 1000,
        }
    }
}

/// Where the socket server accepts connections.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Listen {
    /// A Unix domain socket at this path (created fresh; an existing
    /// socket file is replaced).
    Unix(PathBuf),
    /// A TCP listener on this address, e.g. `127.0.0.1:7070`.
    Tcp(String),
}

impl Listen {
    /// Parses `unix:PATH` or `tcp:ADDR`.
    pub fn parse(s: &str) -> Result<Listen, CliError> {
        if let Some(path) = s.strip_prefix("unix:") {
            if path.is_empty() {
                return Err(CliError::Usage("--listen unix: needs a path".into()));
            }
            Ok(Listen::Unix(PathBuf::from(path)))
        } else if let Some(addr) = s.strip_prefix("tcp:") {
            if addr.is_empty() {
                return Err(CliError::Usage("--listen tcp: needs an address".into()));
            }
            Ok(Listen::Tcp(addr.to_string()))
        } else {
            Err(CliError::Usage(format!(
                "--listen must be unix:PATH or tcp:ADDR, got {s:?}"
            )))
        }
    }
}

/// Per-connection totals, as written into the final `server-summary`
/// record and returned by [`run_sharded`]. The router and each shard
/// send the merger their share of them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerSummary {
    /// Input lines read on the connection (including router-shed ones).
    pub lines: usize,
    /// Jobs admitted across all lanes.
    pub admitted: usize,
    /// Submissions shed at any level (lane `max-pending`, shard queue,
    /// global gate).
    pub shed: usize,
    /// Lines rejected as malformed or invalid.
    pub rejected: usize,
    /// Jobs completed across all lanes.
    pub completed: usize,
    /// Lanes (distinct tenants) the connection touched.
    pub tenants: usize,
}

impl ServerSummary {
    /// Adds another share of the connection's totals.
    pub(crate) fn add(&mut self, other: &ServerSummary) {
        self.lines += other.lines;
        self.admitted += other.admitted;
        self.shed += other.shed;
        self.rejected += other.rejected;
        self.completed += other.completed;
        self.tenants += other.tenants;
    }

    /// Folds in one closed lane's final summary. Its input lines are
    /// already counted by the router.
    pub(crate) fn absorb(&mut self, lane: &ServeSummary) {
        self.admitted += lane.admitted;
        self.shed += lane.shed;
        self.rejected += lane.rejected;
        self.completed += lane.completed;
        self.tenants += 1;
    }
}

pub(crate) type ConnId = u64;

/// Live per-connection counters, updated by the workers after every line
/// and read (racily, monotonically) by the merger for its
/// `server-heartbeat` payload.
#[derive(Default)]
pub(crate) struct ConnCounters {
    pub(crate) lines: AtomicUsize,
    pub(crate) admitted: AtomicUsize,
    pub(crate) shed: AtomicUsize,
    pub(crate) rejected: AtomicUsize,
    pub(crate) completed: AtomicUsize,
    pub(crate) lanes: AtomicUsize,
}

/// The global unfinished-jobs gauge behind `--global-pending`: workers
/// add the per-line delta of their lanes' unfinished counts; the router
/// sheds job lines while the gauge sits at or above the cap.
pub(crate) struct Gate(AtomicIsize);

impl Gate {
    pub(crate) fn new() -> Self {
        Gate(AtomicIsize::new(0))
    }

    pub(crate) fn add(&self, delta: isize) {
        if delta != 0 {
            self.0.fetch_add(delta, Ordering::Relaxed);
        }
    }

    pub(crate) fn over(&self, cap: usize) -> bool {
        self.0.load(Ordering::Relaxed) >= cap as isize
    }
}

/// What the router sends a shard worker.
pub(crate) enum ShardMsg {
    /// A connection opened: here is the shard's clone of the sender of
    /// the connection's merge channel, and its live counters.
    Open {
        conn: ConnId,
        out: mpsc::Sender<MergeMsg>,
        counters: Arc<ConnCounters>,
    },
    /// One raw input line, routed by tenant.
    Line {
        conn: ConnId,
        tenant: String,
        line: String,
    },
    /// The connection's input ended: drain and finish its lanes, send
    /// [`MergeMsg::Done`], and drop the merge sender.
    Eof { conn: ConnId },
}

/// What a shard worker or the router sends a connection's merger.
pub(crate) enum MergeMsg {
    /// Verbatim, already-framed NDJSON output (one or more whole lines).
    Records(Vec<u8>),
    /// The sender finished the connection; this is its share of the
    /// totals (the router's: input lines read, and lines shed before
    /// reaching a shard), and no records follow from it.
    Done(ServerSummary),
}

/// A shard's input queue sender: unbounded, or bounded with
/// shed-on-full semantics for job lines.
#[derive(Clone)]
pub(crate) enum ShardTx {
    Unbounded(mpsc::Sender<ShardMsg>),
    Bounded(mpsc::SyncSender<ShardMsg>),
}

impl ShardTx {
    /// Control messages (`Open`/`Eof`) always go through, blocking on a
    /// full bounded queue — they are rare and must not be lost.
    pub(crate) fn send(&self, msg: ShardMsg) {
        // A send only fails when the worker thread is gone; its merge
        // senders went with it, so the merger still sees the disconnect.
        match self {
            ShardTx::Unbounded(tx) => {
                let _ = tx.send(msg);
            }
            ShardTx::Bounded(tx) => {
                let _ = tx.send(msg);
            }
        }
    }

    /// Lines shed instead of blocking: `Err` hands the message back when
    /// the bounded queue is full (the caller emits a shed record).
    pub(crate) fn try_line(&self, msg: ShardMsg) -> Result<(), ShardMsg> {
        match self {
            ShardTx::Unbounded(tx) => tx.send(msg).map_err(|e| e.0),
            ShardTx::Bounded(tx) => match tx.try_send(msg) {
                Ok(()) => Ok(()),
                Err(mpsc::TrySendError::Full(m)) => Err(m),
                Err(mpsc::TrySendError::Disconnected(m)) => Err(m),
            },
        }
    }
}

/// FNV-1a, the shard routing hash: stable across runs and platforms, so
/// a tenant's shard assignment is reproducible.
pub(crate) fn shard_of(tenant: &str, shards: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in tenant.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    (h % shards as u64) as usize
}

fn validate(cfg: &ServerConfig) -> Result<(), CliError> {
    validate_config(&cfg.serve)?;
    if cfg.shards == 0 {
        return Err(CliError::Usage("--shards must be at least 1".into()));
    }
    if cfg.max_queue == Some(0) {
        return Err(CliError::Usage("--max-queue must be at least 1".into()));
    }
    Ok(())
}

/// Boots the worker pool in `scope`: one worker per shard, each behind
/// its own input queue (bounded by `--max-queue`). Returns the queues.
fn boot<'s, 'e: 's>(
    scope: &'s thread::Scope<'s, 'e>,
    inst: &'e Instance,
    cfg: &'e ServerConfig,
    gate: &'e Gate,
) -> Vec<ShardTx> {
    (0..cfg.shards)
        .map(|_| {
            let (tx, rx) = match cfg.max_queue {
                Some(cap) => {
                    let (tx, rx) = mpsc::sync_channel(cap);
                    (ShardTx::Bounded(tx), rx)
                }
                None => {
                    let (tx, rx) = mpsc::channel();
                    (ShardTx::Unbounded(tx), rx)
                }
            };
            scope.spawn(move || worker::run(rx, inst, cfg, gate));
            tx
        })
        .collect()
}

/// Opens connection `conn` on the worker pool: creates its one merge
/// channel and its live counters, and hands every shard a clone of the
/// sender. Returns the router's sender, and the merger's receiver and
/// counters.
fn open_conn(
    conn: ConnId,
    shard_txs: &[ShardTx],
) -> (
    mpsc::Sender<MergeMsg>,
    mpsc::Receiver<MergeMsg>,
    Arc<ConnCounters>,
) {
    let (tx, rx) = mpsc::channel();
    let counters = Arc::new(ConnCounters::default());
    for shard in shard_txs {
        shard.send(ShardMsg::Open {
            conn,
            out: tx.clone(),
            counters: Arc::clone(&counters),
        });
    }
    (tx, rx, counters)
}

/// Runs one sharded "connection" over arbitrary reader/writer halves —
/// the in-memory/test and sharded-stdin entry point. Spawns the worker
/// pool and the merger, routes `input` inline, and returns the
/// connection's totals once every stream drained.
pub fn run_sharded(
    inst: &Instance,
    cfg: &ServerConfig,
    input: impl BufRead,
    out: impl Write + Send,
) -> Result<ServerSummary, CliError> {
    validate(cfg)?;
    let gate = Gate::new();
    thread::scope(|s| {
        let shard_txs = boot(s, inst, cfg, &gate);
        let (router_tx, merge_rx, counters) = open_conn(0, &shard_txs);
        let merger = s.spawn(move || merge::run(out, merge_rx, counters, cfg));
        let routed = route::run(input, 0, &shard_txs, router_tx, cfg, &gate);
        drop(shard_txs);
        let summary = merger
            .join()
            .map_err(|_| CliError::Failure("merger thread panicked".into()))?;
        routed?;
        summary
    })
}

/// A bidirectional connection stream that can split a second handle off
/// for the reader half.
trait ConnStream: Read + Write + Send {
    fn split(&self) -> std::io::Result<Self>
    where
        Self: Sized;
}

impl ConnStream for UnixStream {
    fn split(&self) -> std::io::Result<Self> {
        self.try_clone()
    }
}

impl ConnStream for TcpStream {
    fn split(&self) -> std::io::Result<Self> {
        self.try_clone()
    }
}

/// Boots the socket server and accepts connections until killed (or, in
/// `once` mode, exactly one connection — the CI smoke harness's clean
/// shutdown path). Each accepted connection gets its own router and
/// merger thread over the shared worker pool; per-connection totals are
/// reported on stderr as connections close.
pub fn run_listener(
    inst: &Instance,
    cfg: &ServerConfig,
    listen: &Listen,
    once: bool,
) -> Result<(), CliError> {
    validate(cfg)?;
    match listen {
        Listen::Unix(path) => {
            // Replace a stale socket file from a previous run.
            let _ = std::fs::remove_file(path);
            let listener = UnixListener::bind(path)
                .map_err(|e| CliError::Io(format!("bind {}: {e}", path.display())))?;
            eprintln!("mmsec serve: listening on unix:{}", path.display());
            let r = accept_loop(inst, cfg, once, || listener.accept().map(|(s, _)| s));
            let _ = std::fs::remove_file(path);
            r
        }
        Listen::Tcp(addr) => {
            let listener = TcpListener::bind(addr.as_str())
                .map_err(|e| CliError::Io(format!("bind {addr}: {e}")))?;
            let local = listener.local_addr().map(|a| a.to_string());
            eprintln!(
                "mmsec serve: listening on tcp:{}",
                local.as_deref().unwrap_or(addr)
            );
            accept_loop(inst, cfg, once, || listener.accept().map(|(s, _)| s))
        }
    }
}

fn accept_loop<S: ConnStream + 'static>(
    inst: &Instance,
    cfg: &ServerConfig,
    once: bool,
    mut accept: impl FnMut() -> std::io::Result<S>,
) -> Result<(), CliError> {
    let gate = Gate::new();
    thread::scope(|s| {
        let shard_txs = boot(s, inst, cfg, &gate);
        let mut conn: ConnId = 0;
        loop {
            let stream = accept().map_err(|e| CliError::Io(format!("accept: {e}")))?;
            conn += 1;
            let reader = stream
                .split()
                .map_err(|e| CliError::Io(format!("clone stream: {e}")))?;
            let (router_tx, merge_rx, counters) = open_conn(conn, &shard_txs);
            let router_txs = shard_txs.clone();
            let gate = &gate;
            s.spawn(move || {
                let input = BufReader::new(reader);
                if let Err(e) = route::run(input, conn, &router_txs, router_tx, cfg, gate) {
                    eprintln!("mmsec serve: conn {conn} reader: {e}");
                }
            });
            let merger = s.spawn(move || {
                let out = BufWriter::new(stream);
                match merge::run(out, merge_rx, counters, cfg) {
                    Ok(sum) => eprintln!(
                        "mmsec serve: conn {conn} closed: {} line(s), {} admitted, \
                         {} shed, {} rejected, {} completed, {} tenant(s)",
                        sum.lines, sum.admitted, sum.shed, sum.rejected, sum.completed, sum.tenants
                    ),
                    Err(e) => eprintln!("mmsec serve: conn {conn} writer: {e}"),
                }
            });
            if once {
                let _ = merger.join();
                break;
            }
        }
        drop(shard_txs);
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_hash_is_stable_and_in_range() {
        for shards in 1..9 {
            for t in ["default", "alice", "bob", "tenant-42"] {
                let a = shard_of(t, shards);
                assert_eq!(a, shard_of(t, shards));
                assert!(a < shards);
            }
        }
        // Distinct tenants do spread (not all on one shard).
        let spread: std::collections::HashSet<_> =
            (0..32).map(|i| shard_of(&format!("t{i}"), 8)).collect();
        assert!(spread.len() > 1);
    }

    #[test]
    fn listen_parses_unix_and_tcp() {
        assert_eq!(
            Listen::parse("unix:/tmp/x.sock").unwrap(),
            Listen::Unix(PathBuf::from("/tmp/x.sock"))
        );
        assert_eq!(
            Listen::parse("tcp:127.0.0.1:7070").unwrap(),
            Listen::Tcp("127.0.0.1:7070".into())
        );
        assert!(Listen::parse("udp:1234").is_err());
        assert!(Listen::parse("unix:").is_err());
    }
}
