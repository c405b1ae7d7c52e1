//! ASCII Gantt rendering of schedules — the textual equivalent of the
//! paper's Figure 1, one row per resource.
//!
//! ```text
//! cpu(e0)  |111--44666444|
//! cpu(c0)  |-22223355----|
//! out(e0)  |22-3--5------|
//! ...
//! ```
//!
//! Each column is one time cell; digits identify jobs (job 10 and above
//! wrap through a wider alphabet), `-` is idle time.

use crate::activity::{Phase, Target};
use crate::instance::Instance;
use crate::job::JobId;
use crate::resource::{ResourceId, ResourceIndex};
use crate::schedule::Schedule;
use mmsec_sim::Interval;
use std::fmt::Write as _;

/// Rendering options.
#[derive(Clone, Copy, Debug)]
pub struct GanttOptions {
    /// Total character width of the timeline.
    pub width: usize,
    /// Include abandoned (re-executed) activity, rendered lowercase.
    pub show_abandoned: bool,
    /// Skip resources that are never used.
    pub hide_idle_resources: bool,
}

impl Default for GanttOptions {
    fn default() -> Self {
        GanttOptions {
            width: 72,
            show_abandoned: true,
            hide_idle_resources: true,
        }
    }
}

/// Symbol used for a job in the chart: `1`–`9`, then letters, then `#`.
fn job_symbol(job: JobId, abandoned: bool) -> char {
    let upper = match job.0 {
        n @ 0..=8 => (b'1' + n as u8) as char,
        n @ 9..=34 => (b'A' + (n - 9) as u8) as char,
        _ => '#',
    };
    if abandoned {
        upper.to_ascii_lowercase()
    } else {
        upper
    }
}

/// Renders a Gantt chart of `schedule` over `instance`'s resources.
pub fn gantt(instance: &Instance, schedule: &Schedule, opts: GanttOptions) -> String {
    let Some(makespan) = schedule_horizon(schedule) else {
        return String::from("(empty schedule)\n");
    };
    let index = ResourceIndex::new(&instance.spec);
    let mut rows: Vec<Vec<char>> = vec![vec!['-'; opts.width]; index.count()];

    let horizon = makespan.max(1e-12);
    let paint = |rows: &mut Vec<Vec<char>>, r: ResourceId, iv: Interval, sym: char| {
        let a = ((iv.start().seconds() / horizon) * opts.width as f64).floor() as usize;
        let b = ((iv.end().seconds() / horizon) * opts.width as f64).ceil() as usize;
        let (a, b) = (a.min(opts.width), b.min(opts.width).max(a + 1));
        let row = &mut rows[index.index(r)];
        for cell in row.iter_mut().take(b.min(opts.width)).skip(a) {
            *cell = sym;
        }
    };

    for (id, job) in instance.iter_jobs() {
        let Some(target) = schedule.alloc[id.0] else {
            continue;
        };
        let sym = job_symbol(id, false);
        for iv in schedule.exec(id.0) {
            for r in Phase::Compute.resources(job, target).iter() {
                paint(&mut rows, r, *iv, sym);
            }
        }
        if let Target::Cloud(_) = target {
            for iv in schedule.up(id.0) {
                for r in Phase::Uplink.resources(job, target).iter() {
                    paint(&mut rows, r, *iv, sym);
                }
            }
            for iv in schedule.dn(id.0) {
                for r in Phase::Downlink.resources(job, target).iter() {
                    paint(&mut rows, r, *iv, sym);
                }
            }
        }
    }
    if opts.show_abandoned {
        for seg in &schedule.abandoned {
            let job = instance.job(seg.job);
            let sym = job_symbol(seg.job, true);
            for r in seg.phase.resources(job, seg.target).iter() {
                paint(&mut rows, r, seg.interval, sym);
            }
        }
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "time 0 .. {makespan:.3}  ({} cells, {:.4} per cell)",
        opts.width,
        horizon / opts.width as f64
    );
    for (ri, row) in rows.iter().enumerate() {
        if opts.hide_idle_resources && row.iter().all(|&c| c == '-') {
            continue;
        }
        let label = index.resource(ri).to_string();
        let _ = writeln!(out, "{label:<9}|{}|", row.iter().collect::<String>());
    }
    out
}

fn schedule_horizon(schedule: &Schedule) -> Option<f64> {
    let mut h: Option<f64> = schedule.makespan().map(|t| t.seconds());
    for seg in &schedule.abandoned {
        let end = seg.interval.end().seconds();
        h = Some(h.map_or(end, |x| x.max(end)));
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{OnlineScheduler, Simulation};
    use crate::instance::figure1_instance;
    use crate::view::SimView;
    use crate::DirectiveBuffer;

    struct AllCloud;
    impl OnlineScheduler for AllCloud {
        fn name(&self) -> String {
            "all-cloud".into()
        }
        fn decide(&mut self, view: &SimView<'_>, out: &mut DirectiveBuffer) {
            for j in view.pending_jobs() {
                out.push(j, Target::Cloud(crate::CloudId(0)));
            }
        }
    }

    struct AllEdge;
    impl OnlineScheduler for AllEdge {
        fn name(&self) -> String {
            "all-edge".into()
        }
        fn decide(&mut self, view: &SimView<'_>, out: &mut DirectiveBuffer) {
            for j in view.pending_jobs() {
                out.push(j, Target::Edge);
            }
        }
    }

    #[test]
    fn renders_figure1_style_chart() {
        let inst = figure1_instance();
        let out = Simulation::of(&inst).policy(&mut AllEdge).run().unwrap();
        let chart = gantt(&inst, &out.schedule, GanttOptions::default());
        // One visible row: the edge CPU; header line present.
        assert!(chart.contains("cpu(e0)"));
        assert!(chart.starts_with("time 0 .."));
        // Every job symbol appears.
        for sym in ['1', '2', '3', '4', '5', '6'] {
            assert!(chart.contains(sym), "missing {sym} in:\n{chart}");
        }
        // No cloud rows (all idle, hidden).
        assert!(!chart.contains("cpu(c0)"));
    }

    #[test]
    fn cloud_rows_and_ports_appear() {
        let inst = figure1_instance();
        let out = Simulation::of(&inst).policy(&mut AllCloud).run().unwrap();
        let chart = gantt(&inst, &out.schedule, GanttOptions::default());
        assert!(chart.contains("cpu(c0)"));
        assert!(chart.contains("out(e0)"));
        assert!(chart.contains("in(e0)"));
    }

    #[test]
    fn empty_schedule_renders_placeholder() {
        let inst = figure1_instance();
        let empty = crate::schedule::TraceBuilder::new(inst.num_jobs()).finish();
        assert_eq!(
            gantt(&inst, &empty, GanttOptions::default()),
            "(empty schedule)\n"
        );
    }

    #[test]
    fn job_symbols_cycle() {
        assert_eq!(job_symbol(JobId(0), false), '1');
        assert_eq!(job_symbol(JobId(8), false), '9');
        assert_eq!(job_symbol(JobId(9), false), 'A');
        assert_eq!(job_symbol(JobId(34), false), 'Z');
        assert_eq!(job_symbol(JobId(35), false), '#');
        assert_eq!(job_symbol(JobId(9), true), 'a');
    }

    #[test]
    fn idle_resources_can_be_shown() {
        let inst = figure1_instance();
        let out = Simulation::of(&inst).policy(&mut AllEdge).run().unwrap();
        let chart = gantt(
            &inst,
            &out.schedule,
            GanttOptions {
                hide_idle_resources: false,
                ..GanttOptions::default()
            },
        );
        assert!(chart.contains("cpu(c0)"));
        assert!(chart.contains("out(c0)"));
    }
}
