//! Deterministic multi-tenant NDJSON job scripts (tenant mix, per-tenant
//! release schedule) for driving a sharded `mmsec serve --listen` socket
//! server. Both serve workloads of the repository benchmark
//! (`perfbench/README.md`) build their traffic on these scripts.
//!
//! Gap and work draws come from `mmsec-workload`'s [`Dist`] toolkit (the
//! same exponential every batch generator uses) rather than a private
//! sampler, so one seeded codepath feeds batch and streaming alike.

use mmsec_workload::Dist;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

/// Parameters of one generated load script.
#[derive(Clone, Copy, Debug)]
pub struct LoadPlan {
    /// Total job submissions to emit.
    pub jobs: usize,
    /// Distinct tenants, named `t0..t{n-1}`, assigned round-robin.
    pub tenants: usize,
    /// Mean virtual-time gap between consecutive releases *per tenant*
    /// (the arrival rate knob: smaller = denser backlog per session).
    pub mean_gap: f64,
    /// Mean job work in virtual seconds.
    pub mean_work: f64,
    /// Edge units on the serving platform (origins cycle over them).
    pub edges: usize,
    /// Seed for the gap/work jitter.
    pub seed: u64,
}

impl Default for LoadPlan {
    fn default() -> Self {
        LoadPlan {
            jobs: 10_000,
            tenants: 8,
            mean_gap: 1.0,
            mean_work: 0.8,
            edges: 2,
            seed: 1,
        }
    }
}

/// One scripted submission line and the tenant it belongs to.
#[derive(Clone, Debug)]
pub struct ScriptedJob {
    /// The NDJSON line to send, newline-terminated.
    pub line: String,
    /// Tenant index (tenant name is `t{index}`).
    pub tenant: usize,
}

/// Generates the full deterministic script for `plan`. Releases are
/// non-decreasing per tenant (exponential-ish gaps via inverse CDF), so
/// each lane replays a plausible arrival process; work is exponential
/// around `mean_work` with a floor to keep jobs non-degenerate.
pub fn script(plan: &LoadPlan) -> Vec<ScriptedJob> {
    assert!(plan.tenants >= 1 && plan.edges >= 1);
    let mut rng = StdRng::seed_from_u64(plan.seed);
    let gap_dist = Dist::exponential(plan.mean_gap);
    let work_dist = Dist::exponential(plan.mean_work);
    let mut clocks = vec![0.0f64; plan.tenants];
    let mut out = Vec::with_capacity(plan.jobs);
    for i in 0..plan.jobs {
        let tenant = i % plan.tenants;
        let gap = gap_dist.sample(&mut rng);
        let work = work_dist.sample(&mut rng).max(0.01);
        clocks[tenant] += gap;
        let origin = rng.gen_range(0..plan.edges);
        let mut line = String::with_capacity(96);
        let _ = writeln!(
            line,
            "{{\"tenant\": \"t{tenant}\", \"origin\": {origin}, \"release\": {:.4}, \
             \"work\": {:.4}}}",
            clocks[tenant], work
        );
        out.push(ScriptedJob { line, tenant });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_is_deterministic_and_per_tenant_ordered() {
        let plan = LoadPlan {
            jobs: 200,
            tenants: 5,
            ..LoadPlan::default()
        };
        let a = script(&plan);
        let b = script(&plan);
        assert_eq!(a.len(), 200);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.line, y.line);
        }
        // Per-tenant releases are non-decreasing.
        for t in 0..5 {
            let mine: Vec<_> = a.iter().filter(|j| j.tenant == t).collect();
            assert_eq!(mine.len(), 40);
            let releases: Vec<f64> = mine
                .iter()
                .map(|j| {
                    let key = "\"release\": ";
                    let at = j.line.find(key).unwrap() + key.len();
                    j.line[at..].split(',').next().unwrap().parse().unwrap()
                })
                .collect();
            assert!(releases.windows(2).all(|w| w[0] <= w[1]));
        }
    }
}
