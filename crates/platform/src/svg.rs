//! Self-contained SVG rendering of schedules: one lane per resource,
//! color-coded per job, hatched for abandoned attempts. No dependencies —
//! the output is a single standalone `.svg` file.

use crate::activity::{Phase, Target};
use crate::instance::Instance;
use crate::job::JobId;
use crate::resource::{ResourceId, ResourceIndex};
use crate::schedule::Schedule;
use mmsec_sim::Interval;
use std::fmt::Write as _;

/// SVG rendering options.
#[derive(Clone, Copy, Debug)]
pub struct SvgOptions {
    /// Total drawing width in pixels (time axis).
    pub width: u32,
    /// Height of one resource lane in pixels.
    pub lane_height: u32,
    /// Skip resources that are never used.
    pub hide_idle_resources: bool,
}

impl Default for SvgOptions {
    fn default() -> Self {
        SvgOptions {
            width: 900,
            lane_height: 22,
            hide_idle_resources: true,
        }
    }
}

/// Deterministic pastel color for a job.
fn job_color(job: JobId) -> String {
    // Golden-angle hue stepping gives well-separated hues for small ids.
    let hue = (job.0 as f64 * 137.508) % 360.0;
    format!("hsl({hue:.0},70%,60%)")
}

/// Renders the schedule as a standalone SVG document.
pub fn schedule_to_svg(instance: &Instance, schedule: &Schedule, opts: SvgOptions) -> String {
    let index = ResourceIndex::new(&instance.spec);
    // Gather (resource, interval, job, abandoned).
    let mut uses: Vec<(usize, Interval, JobId, bool)> = Vec::new();
    for (id, job) in instance.iter_jobs() {
        let Some(target) = schedule.alloc[id.0] else {
            continue;
        };
        let mut add = |phase: Phase, ivs: &[Interval]| {
            for iv in ivs {
                for r in phase.resources(job, target).iter() {
                    uses.push((index.index(r), *iv, id, false));
                }
            }
        };
        add(Phase::Compute, schedule.exec(id.0));
        if matches!(target, Target::Cloud(_)) {
            add(Phase::Uplink, schedule.up(id.0));
            add(Phase::Downlink, schedule.dn(id.0));
        }
    }
    for seg in &schedule.abandoned {
        let job = instance.job(seg.job);
        for r in seg.phase.resources(job, seg.target).iter() {
            uses.push((index.index(r), seg.interval, seg.job, true));
        }
    }

    let horizon = uses
        .iter()
        .map(|(_, iv, _, _)| iv.end().seconds())
        .fold(0.0f64, f64::max)
        .max(f64::MIN_POSITIVE);

    // Which lanes to draw.
    let mut used_lane = vec![false; index.count()];
    for (ri, _, _, _) in &uses {
        used_lane[*ri] = true;
    }
    let lanes: Vec<usize> = (0..index.count())
        .filter(|&ri| used_lane[ri] || !opts.hide_idle_resources)
        .collect();
    let lane_row: Vec<Option<usize>> = {
        let mut map = vec![None; index.count()];
        for (row, &ri) in lanes.iter().enumerate() {
            map[ri] = Some(row);
        }
        map
    };

    let label_w = 90u32;
    let h = opts.lane_height;
    let total_h = h * lanes.len() as u32 + 30;
    let total_w = label_w + opts.width + 10;
    let x_of = |t: f64| label_w as f64 + t / horizon * opts.width as f64;

    let mut svg = String::new();
    let _ = writeln!(
        svg,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{total_w}" height="{total_h}" font-family="monospace" font-size="11">"#
    );
    let _ = writeln!(
        svg,
        r#"<defs><pattern id="hatch" width="6" height="6" patternTransform="rotate(45)" patternUnits="userSpaceOnUse"><line x1="0" y1="0" x2="0" y2="6" stroke="black" stroke-width="2" opacity="0.35"/></pattern></defs>"#
    );

    // Lane backgrounds and labels.
    for (row, &ri) in lanes.iter().enumerate() {
        let y = row as u32 * h;
        let name = resource_label(index.resource(ri));
        let _ = writeln!(
            svg,
            r##"<rect x="{label_w}" y="{y}" width="{}" height="{h}" fill="{}"/>"##,
            opts.width,
            if row % 2 == 0 { "#f6f6f6" } else { "#ececec" }
        );
        let _ = writeln!(
            svg,
            r#"<text x="4" y="{}" dominant-baseline="middle">{name}</text>"#,
            y + h / 2
        );
    }

    // Activity boxes.
    for (ri, iv, job, abandoned) in &uses {
        let Some(row) = lane_row[*ri] else { continue };
        let y = row as u32 * h + 2;
        let x = x_of(iv.start().seconds());
        let w = (x_of(iv.end().seconds()) - x).max(1.0);
        let color = job_color(*job);
        let _ = writeln!(
            svg,
            r##"<rect x="{x:.2}" y="{y}" width="{w:.2}" height="{}" fill="{color}" stroke="#333" stroke-width="0.5"><title>{job} [{:.3}, {:.3})</title></rect>"##,
            h - 4,
            iv.start().seconds(),
            iv.end().seconds()
        );
        if *abandoned {
            let _ = writeln!(
                svg,
                r#"<rect x="{x:.2}" y="{y}" width="{w:.2}" height="{}" fill="url(#hatch)"/>"#,
                h - 4
            );
        }
        if w > 14.0 {
            let _ = writeln!(
                svg,
                r#"<text x="{:.2}" y="{}" dominant-baseline="middle" text-anchor="middle">{}</text>"#,
                x + w / 2.0,
                y + (h - 4) / 2,
                job.0 + 1
            );
        }
    }

    // Time axis.
    let axis_y = h * lanes.len() as u32 + 14;
    let _ = writeln!(
        svg,
        r#"<text x="{label_w}" y="{axis_y}">0</text><text x="{}" y="{axis_y}" text-anchor="end">{horizon:.2}</text>"#,
        label_w + opts.width
    );
    svg.push_str("</svg>\n");
    svg
}

fn resource_label(r: ResourceId) -> String {
    r.to_string().replace('(', " ").replace(')', "")
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
    fn svg_is_well_formed_and_complete() {
        let inst = figure1_instance();
        let out = Simulation::of(&inst).policy(&mut AllCloud).run().unwrap();
        let svg = schedule_to_svg(&inst, &out.schedule, SvgOptions::default());
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        // One lane per used resource; the idle edge CPU is hidden (all
        // jobs were delegated to the cloud).
        assert!(!svg.contains("cpu e0"));
        assert!(svg.contains("cpu c0"));
        assert!(svg.contains("out e0"));
        // Every job appears in a tooltip.
        for j in 1..=6 {
            assert!(svg.contains(&format!("J{j} [")), "missing job {j}");
        }
        // No idle-cloud lane beyond c0 (only one cloud anyway).
        assert_eq!(svg.matches("<svg").count(), 1);
    }

    #[test]
    fn abandoned_attempts_are_hatched() {
        use crate::schedule::TraceBuilder;
        use mmsec_sim::{Interval, Time};
        let inst = figure1_instance();
        let mut tb = TraceBuilder::new(inst.num_jobs());
        tb.record(
            JobId(0),
            Phase::Compute,
            Target::Edge,
            Interval::from_secs(0.0, 1.0),
        );
        tb.abandon(JobId(0));
        tb.record(
            JobId(0),
            Phase::Compute,
            Target::Edge,
            Interval::from_secs(1.0, 4.0),
        );
        tb.complete(JobId(0), Time::new(4.0));
        let svg = schedule_to_svg(&inst, &tb.finish(), SvgOptions::default());
        assert!(svg.contains("url(#hatch)"));
    }

    #[test]
    fn colors_are_deterministic_and_distinct() {
        assert_eq!(job_color(JobId(0)), job_color(JobId(0)));
        assert_ne!(job_color(JobId(0)), job_color(JobId(1)));
        assert_ne!(job_color(JobId(1)), job_color(JobId(2)));
    }
}
