//! Schedule statistics beyond the stretch: resource utilization, per-job
//! time breakdown, and communication/computation overlap — the quantities
//! one inspects to understand *why* a policy achieved its stretch.

use crate::activity::Target;
use crate::instance::Instance;
use crate::resource::{ResourceId, ResourceIndex, ResourceMap};
use crate::schedule::Schedule;
use crate::validate; // reuse of the per-resource usage collection
use mmsec_sim::interval::total_length;
use mmsec_sim::Time;

/// Aggregate utilization and waiting statistics of a schedule.
#[derive(Clone, Debug)]
pub struct ScheduleStats {
    /// Makespan (end of the last activity, abandoned work included).
    pub horizon: f64,
    /// Busy time per resource (final + abandoned activity).
    pub busy: ResourceMap<f64>,
    /// Utilization per resource (busy / horizon).
    pub utilization: ResourceMap<f64>,
    /// Mean utilization over edge CPUs.
    pub mean_edge_cpu_utilization: f64,
    /// Mean utilization over cloud CPUs.
    pub mean_cloud_cpu_utilization: f64,
    /// Per job: response time minus its own total activity time — the
    /// time spent *waiting* (for resources, or between phases).
    pub wait_time: Vec<f64>,
    /// Total time lost to abandoned (re-executed) attempts.
    pub wasted: f64,
    /// Fraction of jobs delegated to the cloud.
    pub offload_ratio: f64,
}

/// Computes the statistics; requires a finished schedule.
pub fn schedule_stats(instance: &Instance, schedule: &Schedule) -> ScheduleStats {
    let spec = &instance.spec;
    let index = ResourceIndex::new(spec);
    let mut busy = ResourceMap::new(spec, 0.0f64);

    let mut horizon: f64 = 0.0;
    for usage in validate_usage(instance, schedule) {
        let (resource, intervals) = usage;
        let total: f64 = intervals.iter().map(|iv| iv.length().seconds()).sum();
        busy[resource] = total;
        for iv in &intervals {
            horizon = horizon.max(iv.end().seconds());
        }
    }
    let horizon = horizon.max(f64::MIN_POSITIVE);

    let mut utilization = ResourceMap::new(spec, 0.0f64);
    for i in 0..index.count() {
        let r = index.resource(i);
        utilization[r] = busy[r] / horizon;
    }

    let mean = |resources: Vec<ResourceId>| -> f64 {
        if resources.is_empty() {
            0.0
        } else {
            resources.iter().map(|&r| utilization[r]).sum::<f64>() / resources.len() as f64
        }
    };
    let mean_edge = mean(spec.edges().map(ResourceId::EdgeCpu).collect());
    let mean_cloud = mean(spec.clouds().map(ResourceId::CloudCpu).collect());

    let mut wait_time = Vec::with_capacity(instance.num_jobs());
    let mut offloaded = 0usize;
    for (id, job) in instance.iter_jobs() {
        let active = total_length(schedule.exec(id.0)).seconds()
            + total_length(schedule.up(id.0)).seconds()
            + total_length(schedule.dn(id.0)).seconds();
        let response = schedule.completion[id.0]
            .map(|c: Time| (c - job.release).seconds())
            .unwrap_or(0.0);
        wait_time.push((response - active).max(0.0));
        if matches!(schedule.alloc[id.0], Some(Target::Cloud(_))) {
            offloaded += 1;
        }
    }

    ScheduleStats {
        horizon,
        busy,
        utilization,
        mean_edge_cpu_utilization: mean_edge,
        mean_cloud_cpu_utilization: mean_cloud,
        wait_time,
        wasted: schedule.wasted_time().seconds(),
        offload_ratio: if instance.num_jobs() == 0 {
            0.0
        } else {
            offloaded as f64 / instance.num_jobs() as f64
        },
    }
}

/// Per-resource interval usage (final + abandoned), sorted by resource
/// index. Thin wrapper over the validator's internal collection logic so
/// the two never diverge.
fn validate_usage(
    instance: &Instance,
    schedule: &Schedule,
) -> Vec<(ResourceId, Vec<mmsec_sim::Interval>)> {
    let index = ResourceIndex::new(&instance.spec);
    validate::resource_usage(instance, schedule)
        .into_iter()
        .enumerate()
        .map(|(i, uses)| {
            (
                index.resource(i),
                uses.into_iter().map(|(iv, _)| iv).collect(),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::Phase;
    use crate::job::{Job, JobId};
    use crate::schedule::TraceBuilder;
    use crate::spec::{CloudId, EdgeId, PlatformSpec};
    use mmsec_sim::Interval;

    fn build() -> (Instance, Schedule) {
        let spec = PlatformSpec::builder()
            .edges(vec![0.5])
            .cloud_pool(1)
            .build();
        let jobs = vec![
            Job::new(EdgeId(0), 0.0, 2.0, 0.0, 0.0), // edge: 4 seconds
            Job::new(EdgeId(0), 0.0, 3.0, 1.0, 1.0), // cloud: 1+3+1
        ];
        let inst = Instance::new(spec, jobs).unwrap();
        let mut tb = TraceBuilder::new(2);
        tb.record(
            JobId(0),
            Phase::Compute,
            Target::Edge,
            Interval::from_secs(0.0, 4.0),
        );
        let c = Target::Cloud(CloudId(0));
        tb.record(JobId(1), Phase::Uplink, c, Interval::from_secs(0.0, 1.0));
        tb.record(JobId(1), Phase::Compute, c, Interval::from_secs(1.0, 4.0));
        tb.record(JobId(1), Phase::Downlink, c, Interval::from_secs(5.0, 6.0));
        tb.complete(JobId(0), mmsec_sim::Time::new(4.0));
        tb.complete(JobId(1), mmsec_sim::Time::new(6.0));
        (inst, tb.finish())
    }

    #[test]
    fn utilization_and_horizon() {
        let (inst, sched) = build();
        let stats = schedule_stats(&inst, &sched);
        assert_eq!(stats.horizon, 6.0);
        assert!((stats.busy[ResourceId::EdgeCpu(EdgeId(0))] - 4.0).abs() < 1e-12);
        assert!((stats.busy[ResourceId::CloudCpu(CloudId(0))] - 3.0).abs() < 1e-12);
        assert!((stats.utilization[ResourceId::EdgeCpu(EdgeId(0))] - 4.0 / 6.0).abs() < 1e-12);
        assert!((stats.mean_edge_cpu_utilization - 4.0 / 6.0).abs() < 1e-12);
        assert!((stats.mean_cloud_cpu_utilization - 0.5).abs() < 1e-12);
    }

    #[test]
    fn wait_times_and_offload() {
        let (inst, sched) = build();
        let stats = schedule_stats(&inst, &sched);
        // Job 0: response 4, active 4 → wait 0.
        assert!(stats.wait_time[0].abs() < 1e-12);
        // Job 1: response 6, active 5 (idle gap [4,5) before downlink).
        assert!((stats.wait_time[1] - 1.0).abs() < 1e-12);
        assert!((stats.offload_ratio - 0.5).abs() < 1e-12);
        assert_eq!(stats.wasted, 0.0);
    }

    #[test]
    fn engine_output_feeds_stats() {
        use crate::engine::{OnlineScheduler, Simulation};
        use crate::view::SimView;
        use crate::DirectiveBuffer;
        struct EdgeFifo;
        impl OnlineScheduler for EdgeFifo {
            fn name(&self) -> String {
                "f".into()
            }
            fn decide(&mut self, view: &SimView<'_>, out: &mut DirectiveBuffer) {
                for j in view.pending_jobs() {
                    out.push(j, Target::Edge);
                }
            }
        }
        let inst = crate::instance::figure1_instance();
        let out = Simulation::of(&inst).policy(&mut EdgeFifo).run().unwrap();
        let stats = schedule_stats(&inst, &out.schedule);
        assert!(stats.horizon > 0.0);
        assert_eq!(stats.offload_ratio, 0.0);
        // The single edge CPU does all the work.
        assert!(stats.mean_edge_cpu_utilization > 0.5);
        assert_eq!(stats.mean_cloud_cpu_utilization, 0.0);
    }
}
