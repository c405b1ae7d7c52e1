//! Allocation discipline of the steady-state hot paths, pinned by a
//! counting global allocator.
//!
//! Three regimes must be allocation-free once their reusable storage is
//! warm:
//!
//! 1. **Engine stepping**: a session advancing through capped
//!    [`Session::run_until`] steps — decide, grant, accrue, trace — with
//!    no admissions or completions in flight reuses every buffer
//!    (directive buffer, activation lists, projection/round state,
//!    contiguous trace-segment merging) and performs zero allocations
//!    per step.
//! 2. **NDJSON record layer**: parsing a submission line into a recycled
//!    [`ObjBuf`] and serializing a response through a reused
//!    [`ObjWriter`] allocates nothing per record — the `mmsec serve`
//!    admit path's parse/emit cost is bounded by the engine, not the
//!    protocol layer.
//! 3. **A served lane**: [`serve::serve`] over an in-memory light-load
//!    stream — idle gaps, heartbeats, `stats` records, admits and
//!    completions — under SSF-EDF, SRPT, Edge-Only, Random, Greedy, Fcfs
//!    and Cloud-Only on a flat platform and under SSF-EDF on a two-tier
//!    one. A lane forgets its
//!    finished jobs at each idle point and reuses their storage, so once
//!    warm it allocates only when a busy period reaches a new high-water
//!    mark; the exact count over lines 1,001–2,000 is pinned, and lines
//!    2,001–2,499 make none.
//! 4. **Finishing a run**: [`Session::into_outcome`] of a drained batch
//!    session lays the schedule out in a fixed number of allocations,
//!    the same at n = 500 and at n = 5,000.
//! 5. **A whole batch run**: one SRPT [`Simulation::run`] allocates only
//!    when a buffer grows by doubling, so its count at n = 5,000 exceeds
//!    the one at n = 500 by a few doublings per buffer, not by a share of
//!    the extra jobs.
//!
//! Everything runs inside ONE `#[test]` so the counter can't be
//! contaminated by a concurrently running sibling test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mmsec_apps::ndjson::{parse_object_into, ObjBuf, ObjWriter};
use mmsec_apps::serve::{self, ServeConfig};
use mmsec_bench::load::{script, LoadPlan};
use mmsec_core::PolicyKind;
use mmsec_platform::{EdgeId, Instance, Job, PlatformSpec, Session, SessionStatus, Simulation};
use mmsec_sim::Time;
use mmsec_workload::RandomCcrConfig;

/// [`System`] with a per-thread allocation-event counter (allocs,
/// reallocs, and zeroed allocs all count; frees don't — the tests bound
/// acquisition, not peak usage). Per-thread so a libtest harness thread
/// allocating concurrently cannot contaminate the measurement; the
/// `const` TLS initializer keeps the counter access itself
/// allocation-free.
struct CountingAlloc;

thread_local! {
    static ALLOC_EVENTS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    ALLOC_EVENTS.with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Runs `f` and returns how many allocation events this thread performed
/// in it.
fn alloc_events(f: impl FnOnce()) -> u64 {
    let before = ALLOC_EVENTS.with(Cell::get);
    f();
    ALLOC_EVENTS.with(Cell::get) - before
}

#[test]
fn steady_state_hot_paths_do_not_allocate() {
    engine_capped_steps();
    ndjson_record_layer();
    // Allocation events over lines 1,001–2,000 per policy and platform.
    // The one source left is reused storage growing past a high-water
    // mark: the trace log when a busy period records more segments than
    // any before it (SSF-EDF's one event takes the log from 16 to 32
    // segments), and the per-job tables when it holds more jobs (SRPT's
    // two; Edge-Only queues longest, and its longest busy period falls in
    // these lines).
    served_lane(PolicyKind::SsfEdf, FLAT, 1);
    served_lane(PolicyKind::Srpt, FLAT, 2);
    served_lane(PolicyKind::EdgeOnly, FLAT, 19);
    served_lane(PolicyKind::Random, FLAT, 1);
    served_lane(PolicyKind::SsfEdf, TWO_TIER, 1);
    served_lane(PolicyKind::Greedy, FLAT, 1);
    served_lane(PolicyKind::Fcfs, FLAT, 2);
    served_lane(PolicyKind::CloudOnly, FLAT, 2);
    finishing_a_run();
    a_whole_batch_run();
}

/// serve-steady's platform: two unit-speed edges, two speed-2 clouds.
const FLAT: &str = "edge 1.0\nedge 1.0\ncloud 2.0\ncloud 2.0\n";
/// The same units with one cloud at each of two tiers.
const TWO_TIER: &str = "edge 1.0\nedge 1.0\nhop 0.5 0.75\nhop 1.5 2.0\ncloud 2.0 1\ncloud 2.0 2\n";

/// Regime 1: capped engine steps in a warm session.
fn engine_capped_steps() {
    let spec = PlatformSpec::builder()
        .edges(vec![1.0])
        .cloud_pool(1)
        .build();
    // One enormous compute-only job: every capped step extends the same
    // contiguous edge-compute segment, decides over the same single
    // pending job, and completes nothing.
    let jobs = vec![Job::new(EdgeId(0), 0.0, 1e9, 0.0, 0.0)];
    let inst = Instance::new(spec, jobs).expect("valid instance");
    let mut policy = PolicyKind::Srpt.build(1);
    let mut session = Simulation::of(&inst).policy(policy.as_mut()).session();

    // Warm-up: first steps grow the reusable buffers to their steady
    // size (directive buffer, activation lists, policy round state).
    let mut t = 0.0;
    for _ in 0..8 {
        t += 0.25;
        session.run_until(Time::new(t)).expect("warm-up advance");
    }

    let events = alloc_events(|| {
        for _ in 0..256 {
            t += 0.25;
            let status = session.run_until(Time::new(t)).expect("steady advance");
            assert_eq!(status, SessionStatus::Reached);
        }
    });
    assert_eq!(
        events, 0,
        "steady-state engine stepping must be allocation-free, \
         saw {events} allocation event(s) over 256 capped steps"
    );
}

/// Regime 2: the serve protocol's parse/serialize layer.
fn ndjson_record_layer() {
    let line = r#"{"origin": 3, "release": 17.25, "work": 2.5, "up": 0.5, "dn": 0.125}"#;
    let mut fields = ObjBuf::new();
    let mut w = ObjWriter::typed("admit");

    // Warm-up sizes the field slots and the writer buffer.
    parse_object_into(line, &mut fields).expect("valid line");
    w.reset("admit")
        .num_field("line", 1.0)
        .num_field("job", 0.0)
        .num_field("release", 17.25);
    let _ = w.close();

    let events = alloc_events(|| {
        for i in 0..256u32 {
            parse_object_into(line, &mut fields).expect("valid line");
            assert_eq!(fields.fields().len(), 5);
            w.reset("admit")
                .num_field("line", f64::from(i))
                .num_field("job", f64::from(i))
                .num_field("release", 17.25);
            assert!(w.close().starts_with(r#"{"type":"admit""#));
        }
    });
    assert_eq!(
        events, 0,
        "NDJSON parse/serialize layer must be allocation-free per \
         record, saw {events} allocation event(s) over 256 round trips"
    );
}

/// An in-memory input stream that notes this thread's allocation count
/// when `serve` starts reading each line of `marks` (0-based), i.e. once
/// every line before it has been fully handled.
struct MarkedInput {
    data: Vec<u8>,
    pos: usize,
    /// Byte offset of each marked line's start, and the count seen there.
    marks: Vec<(usize, Option<u64>)>,
}

impl MarkedInput {
    fn new(lines: &[String], marks: &[usize]) -> Self {
        let mut data = Vec::new();
        let mut starts = Vec::new();
        for line in lines {
            starts.push(data.len());
            data.extend_from_slice(line.as_bytes());
        }
        let marks = marks.iter().map(|&i| (starts[i], None)).collect();
        MarkedInput {
            data,
            pos: 0,
            marks,
        }
    }
}

impl std::io::Read for MarkedInput {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = std::io::BufRead::fill_buf(self)?.len().min(buf.len());
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

impl std::io::BufRead for MarkedInput {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        for (at, seen) in &mut self.marks {
            if *at == self.pos && seen.is_none() {
                *seen = Some(ALLOC_EVENTS.with(Cell::get));
            }
        }
        Ok(&self.data[self.pos..])
    }

    fn consume(&mut self, amt: usize) {
        self.pos += amt;
    }
}

/// Regime 3: one served lane, warm after its first thousand lines, on
/// `platform` (instance text), making exactly `high_water` allocation
/// events over lines 1,001–2,000 and none over 2,001–2,499.
fn served_lane(policy: PolicyKind, platform: &str, high_water: u64) {
    // serve-steady's per-tenant traffic: exponential gaps (mean 1 s) and
    // work (mean 0.8 s). Most submissions find the lane idle.
    let lines: Vec<String> = script(&LoadPlan {
        jobs: 2_500,
        tenants: 1,
        seed: 5,
        ..LoadPlan::default()
    })
    .into_iter()
    .map(|job| job.line)
    .collect();
    let inst = Instance::from_text(platform).expect("valid platform");
    let tiers = inst.spec.tier_depth();
    let cfg = ServeConfig {
        policy,
        heartbeat: 5.0,
        stats_every: Some(100),
        ..ServeConfig::default()
    };
    // Lines 1,001–2,000 and 2,001–2,500 (1-based): between the starts of
    // lines 1,000, 2,000 and 2,499 (0-based), before the last line.
    let mut input = MarkedInput::new(&lines, &[1_000, 2_000, 2_499]);
    let summary = serve::serve(&inst, &cfg, &mut input, std::io::sink(), None)
        .expect("the stream serves cleanly");
    assert_eq!(summary.admitted, lines.len());
    assert_eq!(summary.completed, lines.len());
    let marks: Vec<u64> = input
        .marks
        .iter()
        .map(|m| m.1.expect("every marked line was read"))
        .collect();
    let events = marks[1] - marks[0];
    assert_eq!(
        events, high_water,
        "a warm served lane ({policy}, {tiers} tier(s)) allocates only at \
         high-water marks: expected {high_water}, saw {events} allocation \
         event(s) over lines 1,001-2,000"
    );
    let later = marks[2] - marks[1];
    assert_eq!(
        later, 0,
        "a warm served lane ({policy}, {tiers} tier(s)) must be \
         allocation-free per line, saw {later} allocation event(s) over \
         lines 2,001-2,499"
    );
}

/// Regime 4: the allocation events of [`Session::into_outcome`] on a
/// drained SRPT batch session of `n` random-CCR jobs.
fn outcome_allocs(n: usize) -> u64 {
    let inst = RandomCcrConfig {
        n,
        ..RandomCcrConfig::default()
    }
    .generate(1);
    let mut policy = PolicyKind::Srpt.build(1);
    let mut session: Session<'_> = Simulation::of(&inst).policy(policy.as_mut()).session();
    session
        .drain()
        .expect("SRPT drains every random-CCR instance");
    let mut outcome = None;
    let events = alloc_events(|| outcome = Some(session.into_outcome()));
    let outcome = outcome.expect("finished");
    assert!(outcome.schedule.all_finished());
    assert_eq!(outcome.schedule.num_jobs(), n);
    events
}

/// Regime 4: finishing a run costs the same whatever its job count.
fn finishing_a_run() {
    let (small, large) = (outcome_allocs(500), outcome_allocs(5_000));
    assert_eq!(
        small, large,
        "into_outcome must allocate a fixed number of times: {small} \
         allocation event(s) at n = 500, {large} at n = 5,000"
    );
}

/// Regime 5: the allocation events of one whole SRPT [`Simulation::run`]
/// over `n` random-CCR jobs; the instance and the policy are built
/// outside the count.
fn run_allocs(n: usize) -> u64 {
    let inst = RandomCcrConfig {
        n,
        ..RandomCcrConfig::default()
    }
    .generate(1);
    let mut policy = PolicyKind::Srpt.build(1);
    alloc_events(|| {
        let outcome = Simulation::of(&inst)
            .policy(policy.as_mut())
            .run()
            .expect("SRPT drains every random-CCR instance");
        assert!(outcome.schedule.all_finished());
    })
}

/// Regime 5: a batch run allocates for buffer growth only. Ten times the
/// jobs adds 50 events: every buffer filled one push at a time (the event
/// queue's heap, the job arena's ten columns, the trace log) doubles
/// three or four more times. Nothing is allocated per job or per event.
fn a_whole_batch_run() {
    let (small, large) = (run_allocs(500), run_allocs(5_000));
    assert_eq!(
        (small, large),
        (170, 220),
        "a whole SRPT batch run allocates only when a buffer doubles: \
         saw {small} allocation event(s) at n = 500 and {large} at n = 5,000"
    );
}
