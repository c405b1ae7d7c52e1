//! Schedule export: a flat CSV of every activity interval, for external
//! plotting/visualization tools (one row per contiguous activity on a
//! resource, abandoned attempts flagged).

use crate::activity::{Phase, Target};
use crate::instance::Instance;
use crate::schedule::Schedule;
use std::fmt::Write as _;

/// CSV header of [`schedule_to_csv`].
pub const CSV_HEADER: &str = "job,phase,target,start,end,resources,abandoned";

/// Serializes every activity interval of `schedule` as CSV rows sorted by
/// (start, job).
pub fn schedule_to_csv(instance: &Instance, schedule: &Schedule) -> String {
    let mut rows: Vec<(f64, usize, String)> = Vec::new();
    let mut push =
        |job: usize, phase: Phase, target: Target, start: f64, end: f64, abandoned: bool| {
            let resources: Vec<String> = phase
                .resources(instance.job(crate::JobId(job)), target)
                .iter()
                .map(|r| r.to_string())
                .collect();
            let mut line = String::new();
            let _ = write!(
                line,
                "{},{},{},{},{},{},{}",
                job + 1,
                phase,
                target,
                start,
                end,
                resources.join("+"),
                abandoned
            );
            rows.push((start, job, line));
        };

    for (id, _) in instance.iter_jobs() {
        if let Some(target) = schedule.alloc[id.0] {
            for iv in schedule.exec(id.0) {
                push(
                    id.0,
                    Phase::Compute,
                    target,
                    iv.start().seconds(),
                    iv.end().seconds(),
                    false,
                );
            }
            for iv in schedule.up(id.0) {
                push(
                    id.0,
                    Phase::Uplink,
                    target,
                    iv.start().seconds(),
                    iv.end().seconds(),
                    false,
                );
            }
            for iv in schedule.dn(id.0) {
                push(
                    id.0,
                    Phase::Downlink,
                    target,
                    iv.start().seconds(),
                    iv.end().seconds(),
                    false,
                );
            }
        }
    }
    for seg in &schedule.abandoned {
        push(
            seg.job.0,
            seg.phase,
            seg.target,
            seg.interval.start().seconds(),
            seg.interval.end().seconds(),
            true,
        );
    }

    rows.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite").then(a.1.cmp(&b.1)));
    let mut out = String::from(CSV_HEADER);
    out.push('\n');
    for (_, _, line) in rows {
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// Errors raised by [`schedule_from_csv`].
#[derive(Clone, Debug, PartialEq)]
pub enum ImportError {
    /// A malformed line with its 1-based number and a message.
    Parse {
        /// Line number.
        line: usize,
        /// Problem description.
        message: String,
    },
}

impl std::fmt::Display for ImportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImportError::Parse { line, message } => {
                write!(f, "import error at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for ImportError {}

/// Rebuilds a [`Schedule`] from the CSV produced by [`schedule_to_csv`].
/// Completion times are reconstructed as the end of each job's last
/// non-abandoned activity. Round-trips exactly with the exporter; useful
/// for re-validating archived schedules.
///
/// The file is untrusted: a non-finite time, an end before its start, or
/// two final-attempt rows of one job and phase that overlap are
/// [`ImportError::Parse`] errors naming the offending row's line.
pub fn schedule_from_csv(instance: &Instance, csv: &str) -> Result<Schedule, ImportError> {
    use crate::schedule::TraceBuilder;
    use crate::{CloudId, JobId};
    use mmsec_sim::{Interval, Time};

    struct Row {
        line: usize,
        job: usize,
        phase: Phase,
        target: Target,
        interval: Interval,
        abandoned: bool,
    }

    let n = instance.num_jobs();
    let mut rows: Vec<Row> = Vec::new();
    for (lineno, line) in csv.lines().enumerate() {
        if lineno == 0 {
            if line != CSV_HEADER {
                return Err(ImportError::Parse {
                    line: 1,
                    message: format!("unexpected header {line:?}"),
                });
            }
            continue;
        }
        if line.trim().is_empty() {
            continue;
        }
        let err = |message: String| ImportError::Parse {
            line: lineno + 1,
            message,
        };
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != 7 {
            return Err(err(format!("expected 7 fields, got {}", fields.len())));
        }
        let job: usize = fields[0]
            .parse::<usize>()
            .map_err(|e| err(format!("bad job id: {e}")))?
            .checked_sub(1)
            .ok_or_else(|| err("job ids are 1-based".into()))?;
        if job >= n {
            return Err(err(format!("job {} out of range", job + 1)));
        }
        let phase = match fields[1] {
            "up" => Phase::Uplink,
            "exec" => Phase::Compute,
            "down" => Phase::Downlink,
            other => return Err(err(format!("unknown phase {other:?}"))),
        };
        let target = if fields[2] == "edge" {
            Target::Edge
        } else if let Some(k) = fields[2].strip_prefix("cloud:") {
            Target::Cloud(CloudId(
                k.parse()
                    .map_err(|e| err(format!("bad cloud index: {e}")))?,
            ))
        } else {
            return Err(err(format!("unknown target {:?}", fields[2])));
        };
        let time = |i: usize, name: &str| -> Result<Time, ImportError> {
            let t: f64 = fields[i]
                .parse()
                .map_err(|e| err(format!("bad {name}: {e}")))?;
            if !t.is_finite() {
                return Err(err(format!("{name} {t} is not finite")));
            }
            Ok(Time::new(t))
        };
        let (start, end) = (time(3, "start")?, time(4, "end")?);
        // The tolerance `Interval::new` accepts, so no row it would panic on
        // gets through.
        if !end.approx_ge(start) {
            return Err(err(format!(
                "end {} precedes start {}",
                end.seconds(),
                start.seconds()
            )));
        }
        let abandoned: bool = fields[6]
            .parse()
            .map_err(|e| err(format!("bad abandoned flag: {e}")))?;
        rows.push(Row {
            line: lineno + 1,
            job,
            phase,
            target,
            interval: Interval::new(start, end),
            abandoned,
        });
    }

    // Feed the trace builder: abandoned attempts first (in time order),
    // each followed by an abandon mark, then the final attempts.
    let mut tb = TraceBuilder::new(n);
    rows.sort_by_key(|r| r.interval.start());
    let mut restarted = vec![false; n];
    for row in rows.iter().filter(|r| r.abandoned) {
        tb.record(JobId(row.job), row.phase, row.target, row.interval);
        restarted[row.job] = true;
    }
    for job in (0..n).filter(|&j| restarted[j]) {
        tb.abandon(JobId(job));
    }
    // The latest final-attempt interval of each job and phase: rows come
    // in start order, so a row overlapping any earlier one of its job and
    // phase overlaps this one.
    let mut latest: Vec<[Option<Interval>; 3]> = vec![[None; 3]; n];
    let mut last_end: Vec<Option<Time>> = vec![None; n];
    for row in rows.iter().filter(|r| !r.abandoned) {
        let slot = &mut latest[row.job][row.phase as usize];
        if let Some(prev) = slot.filter(|prev| prev.overlaps(&row.interval)) {
            return Err(ImportError::Parse {
                line: row.line,
                message: format!(
                    "job {} {} row {:?} overlaps {:?}",
                    row.job + 1,
                    row.phase,
                    row.interval,
                    prev
                ),
            });
        }
        if !row.interval.is_empty() {
            *slot = Some(row.interval);
        }
        tb.record(JobId(row.job), row.phase, row.target, row.interval);
        let end = row.interval.end();
        last_end[row.job] = Some(last_end[row.job].map_or(end, |e| e.max(end)));
    }
    for (job, end) in last_end.into_iter().enumerate() {
        if let Some(end) = end {
            tb.complete(JobId(job), end);
        }
    }
    Ok(tb.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{OnlineScheduler, Simulation};
    use crate::instance::figure1_instance;
    use crate::view::SimView;
    use crate::{CloudId, DirectiveBuffer};

    struct AllCloud;
    impl OnlineScheduler for AllCloud {
        fn name(&self) -> String {
            "c".into()
        }
        fn decide(&mut self, view: &SimView<'_>, out: &mut DirectiveBuffer) {
            for j in view.pending_jobs() {
                out.push(j, Target::Cloud(CloudId(0)));
            }
        }
    }

    #[test]
    fn export_contains_all_phases_sorted() {
        let inst = figure1_instance();
        let out = Simulation::of(&inst).policy(&mut AllCloud).run().unwrap();
        let csv = schedule_to_csv(&inst, &out.schedule);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], CSV_HEADER);
        assert!(lines.len() > 3 * 6, "6 jobs × ≥3 phases plus header");
        // Sorted by start time.
        let starts: Vec<f64> = lines[1..]
            .iter()
            .map(|l| l.split(',').nth(3).unwrap().parse().unwrap())
            .collect();
        for w in starts.windows(2) {
            assert!(w[0] <= w[1]);
        }
        // Every row names its resources.
        assert!(csv.contains("out(e0)+in(c0)"));
        assert!(csv.contains("cpu(c0)"));
    }

    #[test]
    fn csv_roundtrip_reconstructs_schedule() {
        let inst = figure1_instance();
        let out = Simulation::of(&inst).policy(&mut AllCloud).run().unwrap();
        let csv = schedule_to_csv(&inst, &out.schedule);
        let back = schedule_from_csv(&inst, &csv).expect("import");
        assert_eq!(back.alloc, out.schedule.alloc);
        for i in 0..inst.num_jobs() {
            assert_eq!(back.exec(i), out.schedule.exec(i));
            assert_eq!(back.up(i), out.schedule.up(i));
            assert_eq!(back.dn(i), out.schedule.dn(i));
        }
        assert_eq!(back.completion, out.schedule.completion);
        // The reconstructed schedule passes full validation too.
        assert!(crate::validate::validate(&inst, &back).is_ok());
    }

    #[test]
    fn import_rejects_malformed_input() {
        let inst = figure1_instance();
        let bad_header = "job,oops\n";
        assert!(matches!(
            schedule_from_csv(&inst, bad_header),
            Err(ImportError::Parse { line: 1, .. })
        ));
        let bad_row = format!("{CSV_HEADER}\n1,exec,edge,0\n");
        assert!(matches!(
            schedule_from_csv(&inst, &bad_row),
            Err(ImportError::Parse { line: 2, .. })
        ));
        let bad_job = format!("{CSV_HEADER}\n99,exec,edge,0,1,cpu(e0),false\n");
        assert!(schedule_from_csv(&inst, &bad_job).is_err());
        let bad_phase = format!("{CSV_HEADER}\n1,warp,edge,0,1,cpu(e0),false\n");
        assert!(schedule_from_csv(&inst, &bad_phase).is_err());
    }

    #[test]
    fn import_rejects_hostile_rows_with_their_line() {
        let inst = figure1_instance();
        let ok = "1,exec,edge,1,3,cpu(e0),false";
        // Each hostile row follows the valid one (line 2) at line 3. An
        // overlap is reported at whichever of the two starts later.
        let cases = [
            ("nan start", "1,exec,edge,NaN,3,cpu(e0),false", 3),
            ("nan end", "1,exec,edge,1,nan,cpu(e0),false", 3),
            ("infinite start", "1,exec,edge,-inf,3,cpu(e0),false", 3),
            ("infinite end", "1,exec,edge,1,inf,cpu(e0),false", 3),
            ("end before start", "1,exec,edge,3,1,cpu(e0),false", 3),
            ("overlap", "1,exec,edge,2,4,cpu(e0),false", 3),
            ("nested overlap", "1,exec,edge,1.5,2,cpu(e0),false", 3),
            ("same start", "1,exec,edge,1,2,cpu(e0),false", 3),
            ("earlier start", "1,exec,edge,0,2,cpu(e0),false", 2),
        ];
        for (name, row, line) in cases {
            let csv = format!("{CSV_HEADER}\n{ok}\n{row}\n");
            match schedule_from_csv(&inst, &csv) {
                Err(ImportError::Parse { line: got, .. }) => {
                    assert_eq!(got, line, "{name}: wrong line")
                }
                other => panic!("{name}: expected a parse error, got {other:?}"),
            }
        }
        // Touching rows, rows of another phase or job, and overlapping
        // abandoned rows are not overlaps within a final attempt.
        for row in [
            "1,exec,edge,3,4,cpu(e0),false",
            "1,up,cloud:0,1,2,out(e0)+in(c0),false",
            "2,exec,edge,1,2,cpu(e0),false",
            "1,exec,edge,1,2,cpu(e0),true",
        ] {
            let csv = format!("{CSV_HEADER}\n{ok}\n{row}\n");
            assert!(schedule_from_csv(&inst, &csv).is_ok(), "{row}");
        }
    }

    #[test]
    fn abandoned_segments_flagged() {
        use crate::schedule::TraceBuilder;
        use mmsec_sim::{Interval, Time};
        let inst = figure1_instance();
        let mut tb = TraceBuilder::new(inst.num_jobs());
        tb.record(
            crate::JobId(0),
            Phase::Compute,
            Target::Edge,
            Interval::from_secs(0.0, 1.0),
        );
        tb.abandon(crate::JobId(0));
        tb.record(
            crate::JobId(0),
            Phase::Compute,
            Target::Edge,
            Interval::from_secs(1.0, 4.0),
        );
        tb.complete(crate::JobId(0), Time::new(4.0));
        let csv = schedule_to_csv(&inst, &tb.finish());
        let abandoned_rows: Vec<&str> = csv.lines().filter(|l| l.ends_with(",true")).collect();
        assert_eq!(abandoned_rows.len(), 1);
        assert!(abandoned_rows[0].starts_with("1,exec,edge,0,1"));
    }
}
