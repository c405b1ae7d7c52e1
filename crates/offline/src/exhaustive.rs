//! Exhaustive oracle for tiny MMSECO instances.
//!
//! Enumerates every allocation (edge or a cloud processor per job) and
//! every placement order, timing each candidate with the contention
//! profile (each job's phases run back-to-back as early as possible given
//! the jobs placed before it, respecting release dates and the one-port
//! model). The result is the optimum over *order-based non-preemptive*
//! schedules:
//!
//! * for instances without communications and with equal release dates
//!   (the MMSH embeddings of Theorem 3) this **is** the true optimum, by
//!   Lemma 2;
//! * in general it upper-bounds the preemptive optimum — still a useful
//!   oracle: any heuristic beating it is doing genuinely clever preemption,
//!   and any heuristic far above it on tiny instances is suspect.
//!
//! Cost is `O((P^c + 1)^n · n!)`; the constructor refuses `n > 8`.

use mmsec_platform::projection::Projection;
use mmsec_platform::{CloudId, Instance, JobId, Target};
use mmsec_sim::Time;

/// Result of the exhaustive search.
#[derive(Clone, Debug)]
pub struct ExhaustiveOptimum {
    /// Best max-stretch found.
    pub max_stretch: f64,
    /// Allocation achieving it.
    pub alloc: Vec<Target>,
    /// Placement order achieving it.
    pub order: Vec<JobId>,
    /// Completion times under that schedule.
    pub completions: Vec<Time>,
}

/// Exhaustive optimum over order-based non-preemptive schedules.
pub fn optimal_order_based(inst: &Instance) -> ExhaustiveOptimum {
    let n = inst.num_jobs();
    assert!(n > 0, "empty instance");
    assert!(n <= 8, "exhaustive search is factorial; n = {n} too large");
    let spec = &inst.spec;
    let n_targets = 1 + spec.num_cloud();

    let mut best: Option<ExhaustiveOptimum> = None;
    let mut alloc_code = vec![0usize; n];
    loop {
        let alloc: Vec<Target> = alloc_code
            .iter()
            .map(|&c| {
                if c == 0 {
                    Target::Edge
                } else {
                    Target::Cloud(CloudId(c - 1))
                }
            })
            .collect();

        // Permutations via Heap's algorithm over the placement order.
        let mut perm: Vec<usize> = (0..n).collect();
        let mut c = vec![0usize; n];
        evaluate(inst, &alloc, &perm, &mut best);
        let mut i = 0;
        while i < n {
            if c[i] < i {
                if i % 2 == 0 {
                    perm.swap(0, i);
                } else {
                    perm.swap(c[i], i);
                }
                evaluate(inst, &alloc, &perm, &mut best);
                c[i] += 1;
                i = 0;
            } else {
                c[i] = 0;
                i += 1;
            }
        }

        // Next allocation code (mixed-radix increment).
        let mut pos = 0;
        loop {
            if pos == n {
                return best.expect("at least one candidate evaluated");
            }
            alloc_code[pos] += 1;
            if alloc_code[pos] < n_targets {
                break;
            }
            alloc_code[pos] = 0;
            pos += 1;
        }
    }
}

fn evaluate(
    inst: &Instance,
    alloc: &[Target],
    perm: &[usize],
    best: &mut Option<ExhaustiveOptimum>,
) {
    let spec = &inst.spec;
    let mut proj = Projection::new(spec, Time::ZERO);
    let mut completions = vec![Time::ZERO; inst.num_jobs()];
    let mut worst = 1.0f64;
    for &ji in perm {
        let id = JobId(ji);
        let job = inst.job(id);
        // Every job runs once, from scratch; placement may not start
        // before the release date.
        let fresh = (job.up, job.work, job.dn);
        let c = proj.place(job, fresh, alloc[ji], spec, job.release);
        completions[ji] = c;
        let stretch = (c - job.release).seconds() / job.min_time(spec);
        worst = worst.max(stretch);
        if let Some(b) = best {
            if worst >= b.max_stretch {
                return; // prune: cannot improve
            }
        }
    }
    let candidate = ExhaustiveOptimum {
        max_stretch: worst,
        alloc: alloc.to_vec(),
        order: perm.iter().map(|&i| JobId(i)).collect(),
        completions,
    };
    let better = best
        .as_ref()
        .map_or(true, |b| candidate.max_stretch < b.max_stretch);
    if better {
        *best = Some(candidate);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::optimal_mmsh;
    use crate::mmsh::MmshInstance;
    use crate::reductions::mmsh_to_mmseco;
    use mmsec_platform::{EdgeId, Job, PlatformSpec};

    #[test]
    fn single_job_picks_best_resource() {
        let spec = PlatformSpec::builder()
            .edges(vec![0.25])
            .cloud_pool(1)
            .build();
        // Edge 8; cloud 1+2+1 = 4.
        let inst = Instance::new(spec, vec![Job::new(EdgeId(0), 0.0, 2.0, 1.0, 1.0)]).unwrap();
        let opt = optimal_order_based(&inst);
        assert!((opt.max_stretch - 1.0).abs() < 1e-12);
        assert!(matches!(opt.alloc[0], Target::Cloud(_)));
    }

    #[test]
    fn matches_mmsh_brute_force_via_theorem3() {
        // On Theorem-3 embeddings the order-based optimum equals the true
        // MMSH optimum (Lemma 2: no preemption needed).
        let mmsh = MmshInstance::new(2, vec![3.0, 1.0, 2.0, 2.5, 1.5]);
        let eco = mmsh_to_mmseco(&mmsh);
        let a = optimal_mmsh(&mmsh);
        let b = optimal_order_based(&eco);
        assert!(
            (a.max_stretch - b.max_stretch).abs() < 1e-9,
            "MMSH brute {} vs exhaustive MMSECO {}",
            a.max_stretch,
            b.max_stretch
        );
    }

    #[test]
    fn release_dates_respected() {
        let spec = PlatformSpec::builder()
            .edges(vec![1.0])
            .cloud_pool(0)
            .build();
        let jobs = vec![
            Job::new(EdgeId(0), 0.0, 2.0, 0.0, 0.0),
            Job::new(EdgeId(0), 10.0, 2.0, 0.0, 0.0),
        ];
        let inst = Instance::new(spec, jobs).unwrap();
        let opt = optimal_order_based(&inst);
        assert!((opt.max_stretch - 1.0).abs() < 1e-12);
        assert!(opt.completions[1] >= Time::new(12.0) - Time::new(1e-9));
    }

    #[test]
    fn one_port_contention_is_modeled() {
        // Two cloud-only-attractive jobs from one edge, one cloud: uplinks
        // serialize, so stretches cannot both be 1.
        let spec = PlatformSpec::builder()
            .edges(vec![0.01])
            .cloud_pool(1)
            .build();
        let jobs = vec![
            Job::new(EdgeId(0), 0.0, 2.0, 1.0, 1.0),
            Job::new(EdgeId(0), 0.0, 2.0, 1.0, 1.0),
        ];
        let inst = Instance::new(spec, jobs).unwrap();
        let opt = optimal_order_based(&inst);
        assert!(opt.max_stretch > 1.0 + 1e-9);
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn refuses_big_instances() {
        let spec = PlatformSpec::builder()
            .edges(vec![1.0])
            .cloud_pool(0)
            .build();
        let jobs = (0..9)
            .map(|_| Job::new(EdgeId(0), 0.0, 1.0, 0.0, 0.0))
            .collect();
        let inst = Instance::new(spec, jobs).unwrap();
        let _ = optimal_order_based(&inst);
    }
}
